//! Integration tests of the device-file surface as the attack uses it —
//! the §4 access path plus hostile/degenerate usage.

use adreno_sim::time::SimInstant;
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::kgsl::abi::*;
use gpu_eaves::kgsl::{Errno, SelinuxDomain};

#[test]
fn the_paper_fig10_sequence_works_verbatim() {
    // Fig 10: open, PERFCOUNTER_GET for LRZ countable 14, then blockread.
    let sim = UiSimulation::new(SimConfig::paper_default(0));
    let dev = sim.device();
    let fd = dev.open(1000, SelinuxDomain::UntrustedApp).unwrap();

    let mut get = KgslPerfcounterGet {
        groupid: KGSL_PERFCOUNTER_GROUP_LRZ,
        countable: 14,
        ..Default::default()
    };
    dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)).unwrap();
    assert!(get.offset > 0, "driver assigns register offsets");

    let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_LRZ, 14)];
    dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads)).unwrap();
    assert_eq!(reads[0].value, 0, "nothing rendered yet");
}

#[test]
fn blockread_of_many_counters_is_atomic_per_call() {
    let mut sim = UiSimulation::new(SimConfig::paper_default(1));
    let dev = sim.device();
    let fd = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
    for c in adreno_sim::counters::ALL_TRACKED {
        let id = c.id();
        let mut get = KgslPerfcounterGet {
            groupid: id.group.kgsl_id(),
            countable: id.countable,
            ..Default::default()
        };
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)).unwrap();
    }
    sim.advance_to(SimInstant::from_millis(500));
    let mut reads: Vec<KgslPerfcounterReadGroup> = adreno_sim::counters::ALL_TRACKED
        .iter()
        .map(|c| KgslPerfcounterReadGroup::new(c.id().group.kgsl_id(), c.id().countable))
        .collect();
    sim.device()
        .ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
        .unwrap();
    assert!(reads.iter().any(|r| r.value > 0), "the initial render must be visible");
}

#[test]
fn hostile_requests_get_clean_errors() {
    let sim = UiSimulation::new(SimConfig::paper_default(2));
    let dev = sim.device();
    let fd = dev.open(666, SelinuxDomain::UntrustedApp).unwrap();

    // Unknown group.
    let mut get = KgslPerfcounterGet { groupid: 0xFF, countable: 1, ..Default::default() };
    assert_eq!(
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)),
        Err(Errno::Einval)
    );
    // Countable out of range.
    let mut get = KgslPerfcounterGet {
        groupid: KGSL_PERFCOUNTER_GROUP_RAS,
        countable: 10_000,
        ..Default::default()
    };
    assert_eq!(
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)),
        Err(Errno::Einval)
    );
    // Reading without a reservation.
    let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_VPC, 9)];
    assert_eq!(
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads)),
        Err(Errno::Einval)
    );
    // Mismatched request code / argument.
    let mut get = KgslPerfcounterGet::default();
    assert_eq!(
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterGet(&mut get)),
        Err(Errno::Einval)
    );
    // Closed fd.
    dev.close(fd).unwrap();
    let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_VPC, 9)];
    assert_eq!(
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads)),
        Err(Errno::Ebadf)
    );
}

#[test]
fn two_processes_share_the_global_counters() {
    // The vulnerability in one sentence: *any* process sees *all* GPU work.
    let mut sim = UiSimulation::new(SimConfig::paper_default(3));
    let dev = sim.device();
    let spy = dev.open(1111, SelinuxDomain::UntrustedApp).unwrap();
    let other = dev.open(2222, SelinuxDomain::PlatformApp).unwrap();
    for fd in [spy, other] {
        let mut get = KgslPerfcounterGet {
            groupid: KGSL_PERFCOUNTER_GROUP_RAS,
            countable: 5,
            ..Default::default()
        };
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)).unwrap();
    }
    sim.advance_to(SimInstant::from_millis(300));
    let dev = sim.device();
    let read = |fd| {
        let mut reads = [KgslPerfcounterReadGroup::new(KGSL_PERFCOUNTER_GROUP_RAS, 5)];
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        reads[0].value
    };
    let a = read(spy);
    let b = read(other);
    assert_eq!(a, b, "both processes observe the same global values");
    assert!(a > 0);
}

#[test]
fn busy_percentage_endpoint_matches_load() {
    let mut sim = UiSimulation::new(SimConfig {
        gpu_load: 0.5,
        system_noise_hz: 0.0,
        ..SimConfig::paper_default(4)
    });
    sim.advance_to(SimInstant::from_millis(1_000));
    let pct = sim.device().gpu_busy_percentage();
    assert!((30..=75).contains(&pct), "expected ~50% busy, got {pct}%");
}
