//! The simulated `/dev/kgsl-3d0` device file.
//!
//! User-space drivers (OpenGL ES, Vulkan) and — crucially — any unprivileged
//! process can `open()` this file and issue perf-counter ioctls (§4 of the
//! paper). The device owns the victim phone's GPU and its clock, validates
//! requests exactly like the real driver (request-code match,
//! reservation-before-read, group/countable bounds) and applies the
//! configured [`AccessPolicy`].

use std::cell::{Ref, RefCell};

use adreno_sim::counters::{CounterSet, TrackedCounter, ALL_TRACKED};
use adreno_sim::gpu::Gpu;
use adreno_sim::time::{SimDuration, SimInstant};

use crate::abi::{
    IoctlRequest, KgslPerfcounterReadGroup, KGSL_PERFCOUNTER_GROUP_LRZ, KGSL_PERFCOUNTER_GROUP_RAS,
    KGSL_PERFCOUNTER_GROUP_VPC,
};
use crate::error::{DeviceResult, Errno};
use crate::fault::{FaultEvent, FaultInjector, FaultLog, FaultPlan};
use crate::policy::{AccessPolicy, CounterVisibility, SelinuxDomain};

/// Maximum countable selector per group (the real hardware exposes a few
/// dozen per group; requests beyond this are `EINVAL`).
pub const MAX_COUNTABLE: u32 = 32;

/// Physical counter registers available per group; `PERFCOUNTER_GET` beyond
/// this returns `EBUSY`.
pub const COUNTERS_PER_GROUP: usize = 16;

/// Modelled counter groups (VPC, RAS, LRZ).
const NUM_GROUPS: usize = 3;

/// Countable selectors per group (`0..=MAX_COUNTABLE`).
const COUNTABLES: usize = (MAX_COUNTABLE + 1) as usize;

/// Block-read entries resolved on the stack before spilling to the heap —
/// comfortably above the attack's 11-counter request.
const INLINE_READ_ENTRIES: usize = 16;

/// Dense index of a KGSL group id within the reservation tables, `None` for
/// unknown groups.
const fn group_index(groupid: u32) -> Option<usize> {
    match groupid {
        KGSL_PERFCOUNTER_GROUP_VPC => Some(0),
        KGSL_PERFCOUNTER_GROUP_RAS => Some(1),
        KGSL_PERFCOUNTER_GROUP_LRZ => Some(2),
        _ => None,
    }
}

/// The tracked counter behind every `[group][countable]` slot, built from
/// [`ALL_TRACKED`]; `None` is a valid hardware counter the simulation does
/// not model. A block read resolves each entry with one load from this
/// table.
const TRACKED_SLOTS: [[Option<TrackedCounter>; COUNTABLES]; NUM_GROUPS] = {
    let mut slots = [[None; COUNTABLES]; NUM_GROUPS];
    let mut i = 0;
    while i < ALL_TRACKED.len() {
        let id = ALL_TRACKED[i].id();
        let Some(group) = group_index(id.group.kgsl_id()) else {
            panic!("every tracked counter lives in a modelled group");
        };
        slots[group][id.countable as usize] = Some(ALL_TRACKED[i]);
        i += 1;
    }
    slots
};

/// Reservation refcounts as a dense `[group][countable]` table.
///
/// The whole `(group, countable)` key space is 3 × 33 slots, so flat arrays
/// replace the former hash maps: the block-read ioctl validates its eleven
/// entries with direct indexing instead of eleven SipHash lookups, on every
/// one of the millions of reads a full suite issues.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResvTable {
    counts: [[u32; COUNTABLES]; NUM_GROUPS],
    /// Distinct reserved countables per group — the `COUNTERS_PER_GROUP`
    /// capacity check, maintained incrementally.
    live: [usize; NUM_GROUPS],
}

impl ResvTable {
    const EMPTY: ResvTable =
        ResvTable { counts: [[0; COUNTABLES]; NUM_GROUPS], live: [0; NUM_GROUPS] };

    fn count(&self, group: usize, countable: usize) -> u32 {
        self.counts[group][countable]
    }

    fn live(&self, group: usize) -> usize {
        self.live[group]
    }

    fn acquire(&mut self, group: usize, countable: usize) {
        if self.counts[group][countable] == 0 {
            self.live[group] += 1;
        }
        self.counts[group][countable] += 1;
    }

    /// Drops one refcount; does nothing when none are held.
    fn release(&mut self, group: usize, countable: usize) {
        if self.counts[group][countable] == 0 {
            return;
        }
        self.counts[group][countable] -= 1;
        if self.counts[group][countable] == 0 {
            self.live[group] -= 1;
        }
    }

    fn clear(&mut self) {
        *self = ResvTable::EMPTY;
    }
}

/// The telemetry span of one ioctl request kind. Reservations are timed per
/// call; block reads — millions of them per suite — are only counted, since
/// a span would cost more than the read it times.
fn ioctl_span_name(req: &IoctlRequest<'_>) -> Option<&'static str> {
    match req {
        IoctlRequest::PerfcounterGet(_) => Some("ioctl.perfcounter_get"),
        IoctlRequest::PerfcounterPut(_) => Some("ioctl.perfcounter_put"),
        IoctlRequest::PerfcounterRead(_) => None,
    }
}

/// Every errno a device call can fail with, and the counter its failures
/// are published under.
const ERRNO_COUNTERS: [(Errno, &str); 7] = [
    (Errno::Eperm, "kgsl.errno.eperm"),
    (Errno::Einval, "kgsl.errno.einval"),
    (Errno::Ebadf, "kgsl.errno.ebadf"),
    (Errno::Eacces, "kgsl.errno.eacces"),
    (Errno::Enodev, "kgsl.errno.enodev"),
    (Errno::Ebusy, "kgsl.errno.ebusy"),
    (Errno::Eintr, "kgsl.errno.eintr"),
];

/// The device's call counts, kept as plain integers in the device state
/// and published once, when the device drops, so no call pays for a
/// telemetry update.
#[derive(Debug, Default)]
struct CallTally {
    /// `kgsl.open`: `open` calls, failed ones included.
    opens: u64,
    /// `kgsl.open_failed`: `open` calls that handed out no handle.
    open_failed: u64,
    /// `kgsl.close`: `close` calls, failed ones included.
    closes: u64,
    /// `kgsl.close_failed`: `close` calls on a handle that was not open.
    close_failed: u64,
    /// `kgsl.fds_revoked`: open handles cleared by a revocation.
    fds_revoked: u64,
    /// `kgsl.ioctl.calls`: `ioctl` calls of every kind.
    ioctls: u64,
    /// Failed `open`/`ioctl` calls, per [`ERRNO_COUNTERS`] entry.
    errnos: [u64; ERRNO_COUNTERS.len()],
    /// `kgsl.fault.transient`: injected `EBUSY`/`EINTR` failures.
    transients: u64,
    /// `kgsl.fault.truncated_read`: injected truncated block-reads.
    truncated_reads: u64,
}

impl CallTally {
    fn fail(&mut self, errno: Errno) {
        let slot = ERRNO_COUNTERS
            .iter()
            .position(|&(e, _)| e == errno)
            .expect("every errno has a counter");
        self.errnos[slot] += 1;
    }

    /// Adds every non-zero count to the current track's counters, with
    /// `kgsl.handles_open_at_drop` for the `handles_open` nobody closed.
    fn publish(&self, handles_open: u64) {
        let calls = [
            ("kgsl.open", self.opens),
            ("kgsl.open_failed", self.open_failed),
            ("kgsl.close", self.closes),
            ("kgsl.close_failed", self.close_failed),
            ("kgsl.fds_revoked", self.fds_revoked),
            ("kgsl.ioctl.calls", self.ioctls),
            ("kgsl.fault.transient", self.transients),
            ("kgsl.fault.truncated_read", self.truncated_reads),
            ("kgsl.handles_open_at_drop", handles_open),
        ];
        let errnos = ERRNO_COUNTERS.iter().zip(self.errnos).map(|(&(_, name), n)| (name, n));
        for (name, n) in calls.into_iter().chain(errnos) {
            if n > 0 {
                spansight::count(name, n);
            }
        }
    }
}

/// An open handle to the device file (a simulated file descriptor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KgslFd(u32);

#[derive(Debug, Clone)]
struct HandleState {
    fd: u32,
    domain: SelinuxDomain,
    /// This handle's own reservation refcounts, so `close()` can release
    /// exactly what the handle still holds (like the real driver's per-context
    /// cleanup).
    reservations: ResvTable,
}

/// Everything the device mutates, the GPU included.
#[derive(Debug)]
struct DeviceState {
    gpu: Gpu,
    /// Open handles, searched by fd. An attacker holds one or two at a
    /// time, and fds are never reused, so a short scan is the whole lookup.
    handles: Vec<HandleState>,
    /// The number the next `open` hands out.
    next_fd: u32,
    /// Device-wide reservation refcounts — the sum of every handle's counts,
    /// used for capacity (`EBUSY`) and read validation.
    reservations: ResvTable,
    policy: AccessPolicy,
    /// Installed fault injector, if any (see [`crate::fault`]).
    fault: Option<FaultInjector>,
    /// Counter values at the last GPU slumber. Hardware registers reset to
    /// zero across a power collapse, so reads report cumulative values
    /// *since* this baseline — which is what makes post-slumber reads jump
    /// backwards from the attacker's point of view.
    counter_baseline: CounterSet,
    tally: CallTally,
}

impl DeviceState {
    /// Where `fd`'s handle sits in `handles`; `EBADF` when it is not open.
    fn slot_of(&self, fd: KgslFd) -> DeviceResult<usize> {
        self.handles.iter().position(|h| h.fd == fd.0).ok_or(Errno::Ebadf)
    }

    /// Forgets every reservation, device-wide and per-handle (GPU slumber).
    fn clear_reservations(&mut self) {
        self.reservations.clear();
        for handle in &mut self.handles {
            handle.reservations.clear();
        }
    }
}

/// The device file.
///
/// # Ownership
///
/// The device owns the victim phone's [`Gpu`] and its clock, and the
/// victim simulation owns the device, so nothing about it is shared
/// between threads: it is `Send` but not `Sync`, and the one thread that
/// holds it steps the victim. Only the owner moves the clock
/// ([`KgslDevice::advance_clock`]) or submits GPU work
/// ([`KgslDevice::gpu_mut`]); `open`, `close` and `ioctl` take `&self` and
/// borrow the device state once per call, so a block read pays for no
/// lock, atomic or hash.
///
/// # Telemetry
///
/// `ioctl.perfcounter_get`/`_put` calls are timed as spans. Every call is
/// counted (`kgsl.open`, `kgsl.open_failed`, `kgsl.close`,
/// `kgsl.close_failed`, `kgsl.ioctl.calls`, `kgsl.errno.*`,
/// `kgsl.fault.transient`, `kgsl.fault.truncated_read`), as is every open
/// handle a revocation clears (`kgsl.fds_revoked`), but the counts are
/// published only when the device drops, to the track current at that
/// point, along with `kgsl.handles_open_at_drop` when some handle was
/// never closed. Together they account for every handle handed out:
/// `open − open_failed = (close − close_failed) + fds_revoked +
/// handles_open_at_drop`. Slumber, revocation and policy-change events
/// are recorded as they happen.
///
/// # Examples
///
/// ```
/// use adreno_sim::geom::Rect;
/// use adreno_sim::scene::DrawList;
/// use adreno_sim::{Gpu, GpuModel, SimInstant};
/// use kgsl::abi::*;
/// use kgsl::device::KgslDevice;
/// use kgsl::policy::SelinuxDomain;
///
/// # fn main() -> Result<(), kgsl::error::Errno> {
/// let mut dev = KgslDevice::new(Gpu::new(GpuModel::Adreno650));
///
/// let fd = dev.open(1234, SelinuxDomain::UntrustedApp)?;
/// let mut get = KgslPerfcounterGet { groupid: KGSL_PERFCOUNTER_GROUP_LRZ, countable: 14, ..Default::default() };
/// dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))?;
///
/// let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 14)];
/// dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))?;
/// assert_eq!(reads[0].value, 0); // nothing rendered yet
///
/// // The owner renders a frame and lets time pass; the read sees it.
/// let mut frame = DrawList::new(256, 256);
/// frame.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
/// let end = dev.gpu_mut().submit(&frame, SimInstant::ZERO).end;
/// dev.advance_clock(end);
/// dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))?;
/// assert!(reads[0].value > 0);
/// dev.close(fd)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KgslDevice {
    /// The simulated "now" every call observes; see
    /// [`KgslDevice::advance_clock`].
    now: SimInstant,
    state: RefCell<DeviceState>,
}

impl KgslDevice {
    /// Creates the device over a GPU, with the clock at time zero.
    pub fn new(gpu: Gpu) -> Self {
        KgslDevice {
            now: SimInstant::ZERO,
            state: RefCell::new(DeviceState {
                gpu,
                handles: Vec::new(),
                next_fd: 3, // 0..2 are stdio, as a nod to realism
                reservations: ResvTable::EMPTY,
                policy: AccessPolicy::default(),
                fault: None,
                counter_baseline: CounterSet::ZERO,
                tally: CallTally::default(),
            }),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Moves the clock to `t`. The clock never goes backwards: an earlier
    /// `t` is a no-op.
    pub fn advance_clock(&mut self, t: SimInstant) {
        self.now = self.now.max(t);
    }

    /// The GPU behind the device, read-only. Drop the guard before the
    /// next device call: a call made while it is alive panics.
    pub fn gpu(&self) -> Ref<'_, Gpu> {
        Ref::map(self.state.borrow(), |st| &st.gpu)
    }

    /// The GPU behind the device, for its owner to submit work to.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.state.get_mut().gpu
    }

    /// Installs a fault-injection plan. Subsequent `open`/`ioctl` calls
    /// consult the plan's schedule and transient rates; see [`crate::fault`].
    /// Replaces any previously installed plan (and its log).
    pub fn install_fault_plan(&self, plan: &FaultPlan) {
        self.state.borrow_mut().fault = Some(FaultInjector::new(plan));
    }

    /// Counts of faults delivered so far, if a plan is installed.
    pub fn fault_log(&self) -> Option<FaultLog> {
        self.state.borrow().fault.as_ref().map(FaultInjector::log)
    }

    /// Delivers due scheduled fault events, then makes this call's transient
    /// draw. Called at every `open`/`ioctl` entry; `Some(errno)` means the
    /// call fails with that transient error.
    fn service_faults(&self, st: &mut DeviceState) -> Option<Errno> {
        st.fault.as_ref()?;
        while let Some(event) = st.fault.as_mut().and_then(|fault| fault.pop_due(self.now)) {
            match event {
                FaultEvent::Slumber => {
                    spansight::instant("kgsl", "kgsl.fault.slumber");
                    // The hardware forgets: registers restart from zero and
                    // reservations are gone.
                    st.counter_baseline = st.gpu.counters_at(self.now);
                    st.clear_reservations();
                }
                FaultEvent::RevokeFds => {
                    spansight::instant("kgsl", "kgsl.fault.revoke_fds");
                    st.tally.fds_revoked += st.handles.len() as u64;
                    st.handles.clear();
                    st.reservations.clear();
                }
                FaultEvent::PolicyChange(policy) => {
                    spansight::instant("kgsl", "kgsl.fault.policy_change");
                    st.policy = policy;
                }
            }
        }
        let transient = st.fault.as_mut().and_then(FaultInjector::draw_transient);
        if transient.is_some() {
            st.tally.transients += 1;
        }
        transient
    }

    /// Installs a new access-control policy (the "OS security update" hook
    /// used by the §9.2 mitigation experiments).
    pub fn set_policy(&self, policy: AccessPolicy) {
        self.state.borrow_mut().policy = policy;
    }

    /// The currently installed policy.
    pub fn policy(&self) -> AccessPolicy {
        self.state.borrow().policy.clone()
    }

    /// Opens the device file from a process.
    ///
    /// Opening always succeeds on stock Android — user-space GPU drivers run
    /// inside every app's process, so the file must be world-accessible
    /// (§4). Policies restrict *ioctls*, not `open`. Under fault injection
    /// the call may still fail transiently (`EBUSY`/`EINTR`), like any
    /// interrupted syscall. The caller's pid is part of the syscall's shape
    /// only: what a handle may do follows from its SELinux `domain`.
    pub fn open(&self, _pid: u32, domain: SelinuxDomain) -> DeviceResult<KgslFd> {
        let mut st = self.state.borrow_mut();
        st.tally.opens += 1;
        if let Some(errno) = self.service_faults(&mut st) {
            st.tally.open_failed += 1;
            st.tally.fail(errno);
            return Err(errno);
        }
        let fd = st.next_fd;
        st.next_fd += 1;
        st.handles.push(HandleState { fd, domain, reservations: ResvTable::EMPTY });
        Ok(KgslFd(fd))
    }

    /// Closes a handle, releasing every reservation it still holds (the real
    /// driver's per-context cleanup). Closing an unknown handle returns
    /// `EBADF`.
    pub fn close(&self, fd: KgslFd) -> DeviceResult<()> {
        let mut st = self.state.borrow_mut();
        st.tally.closes += 1;
        let slot = st.slot_of(fd).inspect_err(|_| st.tally.close_failed += 1)?;
        let handle = st.handles.remove(slot);
        for group in 0..NUM_GROUPS {
            for countable in 0..COUNTABLES {
                for _ in 0..handle.reservations.count(group, countable) {
                    st.reservations.release(group, countable);
                }
            }
        }
        Ok(())
    }

    /// The `ioctl(2)` entry point.
    ///
    /// # Errors
    ///
    /// * `EBADF` — `fd` is not open.
    /// * `EINVAL` — request code does not match the argument, or the
    ///   group/countable is out of range, or a read targets an unreserved
    ///   counter.
    /// * `EBUSY` — all physical counters of the group are reserved, or an
    ///   injected transient fault.
    /// * `EINTR` — an injected transient fault (simulated signal delivery).
    /// * `EACCES`/`EPERM` — blocked by the installed [`AccessPolicy`].
    pub fn ioctl(&self, fd: KgslFd, code: u32, req: IoctlRequest<'_>) -> DeviceResult<()> {
        let _span = ioctl_span_name(&req).map(|name| spansight::span("kgsl", name));
        let mut st = self.state.borrow_mut();
        st.tally.ioctls += 1;
        let result = self.ioctl_in(&mut st, fd, code, req);
        if let Err(errno) = result {
            st.tally.fail(errno);
        }
        result
    }

    /// One ioctl on the borrowed state. The checks run in a fixed order —
    /// fault servicing, `EBADF`, the request code, then the request's own
    /// checks. Which calls reach a fault draw depends on that order, so
    /// reordering the checks changes the outcome of every fault plan.
    fn ioctl_in(
        &self,
        st: &mut DeviceState,
        fd: KgslFd,
        code: u32,
        mut req: IoctlRequest<'_>,
    ) -> DeviceResult<()> {
        if let Some(errno) = self.service_faults(st) {
            return Err(errno);
        }
        let slot = st.slot_of(fd)?;
        let domain = st.handles[slot].domain;
        if code != req.expected_code() {
            return Err(Errno::Einval);
        }
        match &mut req {
            IoctlRequest::PerfcounterGet(get) => {
                let group = validate_target(get.groupid, get.countable)?;
                if st.policy.visibility(domain) == CounterVisibility::Denied {
                    return Err(Errno::Eacces);
                }
                let countable = get.countable as usize;
                if st.reservations.count(group, countable) == 0
                    && st.reservations.live(group) >= COUNTERS_PER_GROUP
                {
                    return Err(Errno::Ebusy);
                }
                st.reservations.acquire(group, countable);
                st.handles[slot].reservations.acquire(group, countable);
                // Fabricate plausible register offsets.
                get.offset = 0xA000 + get.groupid * 0x40 + get.countable * 2;
                get.offset_hi = get.offset + 1;
                Ok(())
            }
            IoctlRequest::PerfcounterPut(put) => {
                let group = validate_target(put.groupid, put.countable)?;
                let countable = put.countable as usize;
                let handle = &mut st.handles[slot];
                if handle.reservations.count(group, countable) == 0 {
                    // This handle holds no such reservation (it may never
                    // have taken one, or lost it across a slumber).
                    return Err(Errno::Einval);
                }
                handle.reservations.release(group, countable);
                st.reservations.release(group, countable);
                Ok(())
            }
            IoctlRequest::PerfcounterRead(reads) => self.perfcounter_read(st, domain, reads),
        }
    }

    fn perfcounter_read(
        &self,
        st: &mut DeviceState,
        domain: SelinuxDomain,
        reads: &mut [KgslPerfcounterReadGroup],
    ) -> DeviceResult<()> {
        let visibility = st.policy.visibility(domain);
        if visibility == CounterVisibility::Denied {
            return Err(Errno::Eacces);
        }
        // Validate all targets first — the real driver fails the whole
        // block-read on the first bad entry without partial writes — and
        // resolve each entry to its tracked counter in the same pass, so
        // the fill loops below run over precomputed lookups. The
        // resolution buffer lives on the stack for anything up to
        // `INLINE_READ_ENTRIES` (the attack's request is 11 entries);
        // oversized requests spill to the heap.
        let mut inline = [None; INLINE_READ_ENTRIES];
        let mut heap: Vec<Option<TrackedCounter>> = Vec::new();
        let resolved: &mut [Option<TrackedCounter>] = if reads.len() <= INLINE_READ_ENTRIES {
            &mut inline[..reads.len()]
        } else {
            heap.resize(reads.len(), None);
            &mut heap
        };
        for (r, slot) in reads.iter().zip(resolved.iter_mut()) {
            let group = validate_target(r.groupid, r.countable)?;
            let countable = r.countable as usize;
            if st.reservations.count(group, countable) == 0 {
                return Err(Errno::Einval);
            }
            *slot = TRACKED_SLOTS[group][countable];
        }
        if visibility == CounterVisibility::LocalOnly {
            // The caller sees only its own GPU activity. The attacking
            // process renders nothing, so its local view never moves —
            // this is exactly how the mitigation starves the channel.
            for r in reads.iter_mut() {
                r.value = 0;
            }
            return Ok(());
        }
        // A truncated read fills a strict prefix of the request and fails
        // `EINTR` — the ioctl analogue of a short `read(2)`. Callers must
        // discard the buffer, like the wire decoder discards short frames.
        let truncate_at = st.fault.as_mut().and_then(|inj| inj.draw_truncation(reads.len()));
        let snapshot = st.gpu.counters_at(self.now);
        // Registers physically reset across a GPU slumber, so a read reports
        // the cumulative count since the most recent slumber baseline.
        let baseline = &st.counter_baseline;
        let fill = |r: &mut KgslPerfcounterReadGroup, tracked: Option<TrackedCounter>| {
            r.value = match tracked {
                Some(tracked) => snapshot[tracked].saturating_sub(baseline[tracked]),
                None => 0,
            };
        };
        if let Some(k) = truncate_at {
            for (r, &tracked) in reads[..k].iter_mut().zip(resolved.iter()) {
                fill(r, tracked);
            }
            st.tally.truncated_reads += 1;
            return Err(Errno::Eintr);
        }
        for (r, &tracked) in reads.iter_mut().zip(resolved.iter()) {
            fill(r, tracked);
        }
        Ok(())
    }

    /// The `/sys/class/kgsl/kgsl-3d0/gpu_busy_percentage` sysfs endpoint:
    /// GPU utilisation over the last 100 ms, in percent.
    pub fn gpu_busy_percentage(&self) -> u32 {
        let frac = self.gpu().busy_fraction(self.now, SimDuration::from_millis(100));
        (frac * 100.0).round() as u32
    }
}

/// Checks a `(group, countable)` target and returns the group's dense
/// reservation-table index.
fn validate_target(groupid: u32, countable: u32) -> DeviceResult<usize> {
    let group = group_index(groupid).ok_or(Errno::Einval)?;
    if countable > MAX_COUNTABLE {
        return Err(Errno::Einval);
    }
    Ok(group)
}

impl Drop for KgslDevice {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        st.tally.publish(st.handles.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::*;
    use adreno_sim::counters::{CounterGroup, CounterId};
    use adreno_sim::geom::Rect;
    use adreno_sim::scene::DrawList;
    use adreno_sim::GpuModel;

    fn device() -> KgslDevice {
        KgslDevice::new(Gpu::new(GpuModel::Adreno650))
    }

    #[test]
    fn tracked_slots_agree_with_from_id() {
        for (group, slots) in
            [CounterGroup::Vpc, CounterGroup::Ras, CounterGroup::Lrz].into_iter().zip(TRACKED_SLOTS)
        {
            assert_eq!(group_index(group.kgsl_id()), Some(group as usize));
            for (countable, slot) in (0..).zip(slots) {
                let id = CounterId::new(group, countable);
                assert_eq!(slot, TrackedCounter::from_id(id), "slot {id}");
            }
        }
    }

    #[test]
    fn advance_clock_is_monotonic() {
        let mut dev = device();
        dev.advance_clock(SimInstant::from_millis(10));
        dev.advance_clock(SimInstant::from_millis(5)); // ignored
        assert_eq!(dev.now(), SimInstant::from_millis(10));
    }

    fn get_counter(dev: &KgslDevice, fd: KgslFd, group: u32, countable: u32) -> DeviceResult<()> {
        let mut get = KgslPerfcounterGet { groupid: group, countable, ..Default::default() };
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))
    }

    #[test]
    fn unprivileged_open_succeeds() {
        let dev = device();
        assert!(dev.open(1000, SelinuxDomain::UntrustedApp).is_ok());
    }

    #[test]
    fn read_requires_reservation() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        let err = dev
            .ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap_err();
        assert_eq!(err, Errno::Einval);
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
    }

    #[test]
    fn read_observes_rendered_frames() {
        let mut dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();

        // Some other process renders a frame.
        let mut dl = DrawList::new(256, 256);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
        let end = dev.gpu_mut().submit(&dl, SimInstant::ZERO).end;
        dev.advance_clock(end);

        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 2, "the quad's two triangles are visible globally");
    }

    #[test]
    fn mismatched_request_code_is_einval() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let mut get = KgslPerfcounterGet::default();
        let err = dev
            .ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterGet(&mut get))
            .unwrap_err();
        assert_eq!(err, Errno::Einval);
    }

    #[test]
    fn unknown_group_is_einval() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        assert_eq!(get_counter(&dev, fd, 0x42, 1).unwrap_err(), Errno::Einval);
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, MAX_COUNTABLE + 1).unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn closed_fd_is_ebadf() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        dev.close(fd).unwrap();
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap_err(),
            Errno::Ebadf
        );
        assert_eq!(dev.close(fd).unwrap_err(), Errno::Ebadf);
    }

    #[test]
    fn group_capacity_exhaustion_is_ebusy() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        for c in 0..COUNTERS_PER_GROUP as u32 {
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_RAS, c).unwrap();
        }
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_RAS, COUNTERS_PER_GROUP as u32)
                .unwrap_err(),
            Errno::Ebusy
        );
        // Re-getting an already reserved countable is fine (refcounted).
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_RAS, 0).unwrap();
    }

    #[test]
    fn put_releases_reservation() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_VPC, 9).unwrap();
        let put = KgslPerfcounterPut { groupid: KGSL_PERFCOUNTER_GROUP_VPC, countable: 9 };
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put)).unwrap();
        // Second put fails: nothing reserved any more.
        assert_eq!(
            dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put))
                .unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn close_releases_the_handles_reservations() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        // Exhaust the group from one handle...
        for c in 0..COUNTERS_PER_GROUP as u32 {
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_RAS, c).unwrap();
        }
        let other = dev.open(2, SelinuxDomain::UntrustedApp).unwrap();
        assert_eq!(
            get_counter(&dev, other, KGSL_PERFCOUNTER_GROUP_RAS, COUNTERS_PER_GROUP as u32)
                .unwrap_err(),
            Errno::Ebusy
        );
        // ...then close it: the capacity must come back for other handles.
        dev.close(fd).unwrap();
        get_counter(&dev, other, KGSL_PERFCOUNTER_GROUP_RAS, COUNTERS_PER_GROUP as u32).unwrap();
        let mut reads =
            [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_RAS, COUNTERS_PER_GROUP as u32)];
        dev.ioctl(other, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        // The closed handle's reservations are gone: reading one is EINVAL.
        let mut stale = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_RAS, 0)];
        assert_eq!(
            dev.ioctl(
                other,
                IOCTL_KGSL_PERFCOUNTER_READ,
                IoctlRequest::PerfcounterRead(&mut stale)
            )
            .unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn close_only_releases_its_own_refcounts() {
        let dev = device();
        let a = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let b = dev.open(2, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, a, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        get_counter(&dev, b, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.close(a).unwrap();
        // b's reservation must survive a's close.
        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        dev.ioctl(b, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
    }

    #[test]
    fn put_requires_the_handles_own_reservation() {
        let dev = device();
        let a = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let b = dev.open(2, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, a, KGSL_PERFCOUNTER_GROUP_VPC, 9).unwrap();
        let put = KgslPerfcounterPut { groupid: KGSL_PERFCOUNTER_GROUP_VPC, countable: 9 };
        // b never reserved it, so b cannot release it.
        assert_eq!(
            dev.ioctl(b, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put))
                .unwrap_err(),
            Errno::Einval
        );
        dev.ioctl(a, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put)).unwrap();
    }

    #[test]
    fn deny_all_policy_blocks_get_and_read() {
        let dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.set_policy(AccessPolicy::DenyAll);
        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        assert_eq!(
            dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
                .unwrap_err(),
            Errno::Eacces
        );
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 14).unwrap_err(),
            Errno::Eacces
        );
    }

    #[test]
    fn rbac_gives_untrusted_apps_a_frozen_local_view() {
        let mut dev = device();
        dev.set_policy(AccessPolicy::role_based([SelinuxDomain::GpuProfiler]));
        let attacker = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let profiler = dev.open(2, SelinuxDomain::GpuProfiler).unwrap();
        get_counter(&dev, attacker, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();

        let mut dl = DrawList::new(256, 256);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
        let end = dev.gpu_mut().submit(&dl, SimInstant::ZERO).end;
        dev.advance_clock(end);

        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        dev.ioctl(attacker, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 0, "attacker only sees its own (empty) activity");

        dev.ioctl(profiler, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 2, "profiler retains global visibility");
    }

    fn render_a_frame(dev: &mut KgslDevice, at: SimInstant) {
        let mut dl = DrawList::new(256, 256);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
        let end = dev.gpu_mut().submit(&dl, at).end;
        dev.advance_clock(end);
    }

    #[test]
    fn slumber_zeroes_live_counters_and_drops_reservations() {
        let mut dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        render_a_frame(&mut dev, SimInstant::ZERO);

        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 2);

        let plan = FaultPlan::new(0)
            .at(dev.now() + SimDuration::from_millis(1), crate::fault::FaultEvent::Slumber);
        dev.install_fault_plan(&plan);
        dev.advance_clock(dev.now() + SimDuration::from_millis(2));

        // The reservation is gone: the read is EINVAL until re-acquired.
        assert_eq!(
            dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
                .unwrap_err(),
            Errno::Einval
        );
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 0, "registers restart from zero after slumber");
        assert_eq!(dev.fault_log().unwrap().slumbers, 1);

        // New work after the slumber is visible again.
        let now = dev.now();
        render_a_frame(&mut dev, now);
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 2);
    }

    #[test]
    fn revocation_makes_every_fd_ebadf() {
        let mut dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.install_fault_plan(
            &FaultPlan::new(0).at(SimInstant::from_millis(10), crate::fault::FaultEvent::RevokeFds),
        );
        dev.advance_clock(SimInstant::from_millis(20));
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 14).unwrap_err(),
            Errno::Ebadf
        );
        // Reopening works and the device is fully functional again.
        let fd2 = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd2, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        assert_eq!(dev.fault_log().unwrap().revocations, 1);
    }

    #[test]
    fn scheduled_policy_flip_is_applied() {
        let mut dev = device();
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        dev.install_fault_plan(&FaultPlan::new(0).at(
            SimInstant::from_millis(5),
            crate::fault::FaultEvent::PolicyChange(AccessPolicy::DenyAll),
        ));
        dev.advance_clock(SimInstant::from_millis(6));
        assert_eq!(
            get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 14).unwrap_err(),
            Errno::Eacces
        );
    }

    #[test]
    fn transient_faults_are_deterministic_per_seed() {
        let run = || {
            let dev = device();
            dev.install_fault_plan(&FaultPlan::new(77).with_transient_rates(0.3, 0.2));
            let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap_or(KgslFd(u32::MAX));
            (0..64)
                .map(|i| get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, i % 8).err())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|e| matches!(e, Some(Errno::Ebusy))));
        assert!(a.iter().any(|e| matches!(e, Some(Errno::Eintr))));
    }

    #[test]
    fn truncated_reads_fill_a_prefix_and_fail_eintr() {
        let mut dev = device();
        dev.install_fault_plan(&FaultPlan::new(13).with_truncated_reads(0.5));
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 14).unwrap();
        render_a_frame(&mut dev, SimInstant::ZERO);

        let sentinel = u64::MAX;
        let mut truncated = 0u32;
        for _ in 0..256 {
            let mut reads = [
                KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13),
                KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 14),
            ];
            for r in reads.iter_mut() {
                r.value = sentinel;
            }
            match dev.ioctl(
                fd,
                IOCTL_KGSL_PERFCOUNTER_READ,
                IoctlRequest::PerfcounterRead(&mut reads),
            ) {
                Ok(()) => assert!(reads.iter().all(|r| r.value != sentinel)),
                Err(Errno::Eintr) => {
                    truncated += 1;
                    // A strict prefix is filled; at least the last entry is
                    // left untouched.
                    assert_eq!(reads[1].value, sentinel, "truncation must leave a suffix");
                }
                Err(other) => panic!("unexpected errno {other:?}"),
            }
        }
        assert!(truncated > 50, "truncation rate 0.5 barely fired: {truncated}");
        assert_eq!(dev.fault_log().unwrap().truncated_reads, truncated as u64);
    }

    /// What a caller observed of its own device calls, tallied outside the
    /// device.
    #[derive(Default)]
    struct Observed {
        opens: u64,
        open_failed: u64,
        closes: u64,
        ioctls: u64,
        errnos: std::collections::BTreeMap<String, u64>,
    }

    impl Observed {
        fn note<T>(&mut self, result: DeviceResult<T>) -> DeviceResult<T> {
            if let Err(errno) = &result {
                let name = format!("kgsl.errno.{}", errno.name().to_lowercase());
                *self.errnos.entry(name).or_default() += 1;
            }
            result
        }

        fn open(&mut self, dev: &KgslDevice) -> DeviceResult<KgslFd> {
            self.opens += 1;
            let result = self.note(dev.open(1, SelinuxDomain::UntrustedApp));
            self.open_failed += u64::from(result.is_err());
            result
        }

        fn ioctl(
            &mut self,
            dev: &KgslDevice,
            fd: KgslFd,
            code: u32,
            req: IoctlRequest<'_>,
        ) -> DeviceResult<()> {
            self.ioctls += 1;
            self.note(dev.ioctl(fd, code, req))
        }

        fn get(&mut self, dev: &KgslDevice, fd: KgslFd, countable: u32) -> DeviceResult<()> {
            let mut get = KgslPerfcounterGet {
                groupid: KGSL_PERFCOUNTER_GROUP_LRZ,
                countable,
                ..Default::default()
            };
            self.ioctl(dev, fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))
        }

        fn read(&mut self, dev: &KgslDevice, fd: KgslFd, groupid: u32) -> DeviceResult<()> {
            let mut reads = [
                KgslPerfcounterReadGroup::new(groupid, 13),
                KgslPerfcounterReadGroup::new(groupid, 14),
            ];
            self.ioctl(
                dev,
                fd,
                IOCTL_KGSL_PERFCOUNTER_READ,
                IoctlRequest::PerfcounterRead(&mut reads),
            )
        }
    }

    #[test]
    fn calls_are_tallied_and_published_once_when_the_device_drops() {
        let track = spansight::register_track("kgsl-device-call-tally");
        let _track = spansight::enter_track(track);
        let kgsl_counters = || -> Vec<(String, u64)> {
            let snap = spansight::snapshot().for_track(track);
            snap.counters
                .iter()
                .filter(|c| c.name.starts_with("kgsl."))
                .map(|c| (c.name.to_string(), c.value))
                .collect()
        };

        let mut dev = device();
        dev.install_fault_plan(
            &FaultPlan::new(5).with_transient_rates(0.2, 0.1).with_truncated_reads(0.3),
        );
        let mut seen = Observed::default();
        let fd = loop {
            if let Ok(fd) = seen.open(&dev) {
                break fd;
            }
        };
        for countable in [13, 14] {
            while seen.get(&dev, fd, countable).is_err() {}
        }
        render_a_frame(&mut dev, SimInstant::ZERO);
        for _ in 0..200 {
            let _ = seen.read(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ);
        }
        // Failures on purpose: an unknown group, a mismatched request code
        // and a descriptor that was never opened. A transient draw may
        // pre-empt any of them, so each is tried a few times.
        let mut get = KgslPerfcounterGet::default();
        for _ in 0..4 {
            let _ = seen.read(&dev, fd, 0x42);
            let _ = seen.ioctl(
                &dev,
                fd,
                IOCTL_KGSL_PERFCOUNTER_READ,
                IoctlRequest::PerfcounterGet(&mut get),
            );
            let _ = seen.get(&dev, KgslFd(9_999), 13);
        }
        seen.closes += 1;
        dev.close(fd).unwrap();

        assert_eq!(kgsl_counters(), vec![], "nothing is published while the device lives");
        let log = dev.fault_log().unwrap();
        drop(dev);

        let mut expected: Vec<(String, u64)> = vec![
            ("kgsl.close".into(), seen.closes),
            ("kgsl.fault.transient".into(), log.transient_busy + log.transient_intr),
            ("kgsl.fault.truncated_read".into(), log.truncated_reads),
            ("kgsl.ioctl.calls".into(), seen.ioctls),
            ("kgsl.open".into(), seen.opens),
            ("kgsl.open_failed".into(), seen.open_failed),
        ];
        expected.extend(seen.errnos.clone());
        expected.sort();
        assert_eq!(kgsl_counters(), expected);
        for errno in ["ebusy", "eintr", "einval", "ebadf"] {
            assert!(seen.errnos[&format!("kgsl.errno.{errno}")] > 0, "no {errno} was produced");
        }
        assert!(log.truncated_reads > 0 && seen.opens > 1, "the plan must fire: {log:?}");
    }

    #[test]
    fn handles_left_open_are_published_when_the_device_drops() {
        let track = spansight::register_track("kgsl-device-handles-at-drop");
        let _track = spansight::enter_track(track);
        let dev = device();
        let _kept = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let closed = dev.open(2, SelinuxDomain::UntrustedApp).unwrap();
        dev.close(closed).unwrap();
        drop(dev);
        let snap = spansight::snapshot().for_track(track);
        let count = |name| snap.counters.iter().find(|c| c.name == name).map(|c| c.value);
        assert_eq!(count("kgsl.open"), Some(2));
        assert_eq!(count("kgsl.close"), Some(1));
        assert_eq!(count("kgsl.handles_open_at_drop"), Some(1));
    }

    #[test]
    fn failed_closes_and_revoked_handles_are_counted() {
        let track = spansight::register_track("kgsl-device-handle-conservation");
        let _track = spansight::enter_track(track);
        let mut dev = device();
        let closed = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        dev.close(closed).unwrap();
        assert_eq!(dev.close(closed).unwrap_err(), Errno::Ebadf);
        for pid in [2, 3] {
            dev.open(pid, SelinuxDomain::UntrustedApp).unwrap();
        }
        dev.install_fault_plan(
            &FaultPlan::new(0).at(SimInstant::from_millis(10), crate::fault::FaultEvent::RevokeFds),
        );
        dev.advance_clock(SimInstant::from_millis(20));
        // This open delivers the revocation, then hands out a handle that
        // stays open until the device drops.
        dev.open(4, SelinuxDomain::UntrustedApp).unwrap();
        drop(dev);
        let snap = spansight::snapshot().for_track(track);
        let count = |name| snap.counters.iter().find(|c| c.name == name).map(|c| c.value);
        assert_eq!(count("kgsl.open"), Some(4));
        assert_eq!(count("kgsl.open_failed"), None);
        assert_eq!(count("kgsl.close"), Some(2));
        assert_eq!(count("kgsl.close_failed"), Some(1));
        assert_eq!(count("kgsl.fds_revoked"), Some(2));
        assert_eq!(count("kgsl.handles_open_at_drop"), Some(1));
    }

    #[test]
    fn null_fault_plan_changes_nothing() {
        let mut dev = device();
        dev.install_fault_plan(&FaultPlan::new(123));
        let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        get_counter(&dev, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 13).unwrap();
        render_a_frame(&mut dev, SimInstant::ZERO);
        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 13)];
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        assert_eq!(reads[0].value, 2);
        assert_eq!(dev.fault_log().unwrap().total(), 0);
    }

    #[test]
    fn busy_percentage_reflects_load() {
        let mut dev = device();
        assert_eq!(dev.gpu_busy_percentage(), 0);
        let gpu = dev.gpu_mut();
        let cycles = gpu.params().clock_mhz as u64 * 1_000 * 50; // 50ms of work
        gpu.submit_workload(CounterSet::ZERO, cycles, SimInstant::ZERO);
        dev.advance_clock(SimInstant::from_millis(100));
        let pct = dev.gpu_busy_percentage();
        assert!((45..=55).contains(&pct), "expected ~50% busy, got {pct}");
    }
}
