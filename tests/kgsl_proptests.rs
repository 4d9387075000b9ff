//! Property-based fuzzing of the device-file surface: arbitrary ioctl
//! sequences must never panic, corrupt reservations, or grant access a
//! policy forbids, and handles that come and go must never disturb the
//! ones that stay.

use adreno_sim::geom::Rect;
use adreno_sim::scene::DrawList;
use adreno_sim::{Gpu, GpuModel, SimDuration, ALL_TRACKED, NUM_TRACKED};
use kgsl::abi::*;
use kgsl::{AccessPolicy, Errno, FaultEvent, FaultPlan, KgslDevice, KgslFd, SelinuxDomain};
use proptest::prelude::*;

fn device() -> KgslDevice {
    KgslDevice::new(Gpu::new(GpuModel::Adreno650))
}

#[derive(Debug, Clone)]
enum Op {
    Open(SelinuxDomain),
    Close(usize),
    Get { fd: usize, group: u32, countable: u32 },
    Put { fd: usize, group: u32, countable: u32 },
    Read { fd: usize, group: u32, countable: u32 },
    SetPolicy(u8),
}

fn arb_domain() -> impl Strategy<Value = SelinuxDomain> {
    prop::sample::select(vec![
        SelinuxDomain::UntrustedApp,
        SelinuxDomain::PlatformApp,
        SelinuxDomain::GpuProfiler,
        SelinuxDomain::Shell,
    ])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_domain().prop_map(Op::Open),
        (0usize..8).prop_map(Op::Close),
        (0usize..8, 0u32..0x20, 0u32..40).prop_map(|(fd, group, countable)| Op::Get {
            fd,
            group,
            countable
        }),
        (0usize..8, 0u32..0x20, 0u32..40).prop_map(|(fd, group, countable)| Op::Put {
            fd,
            group,
            countable
        }),
        (0usize..8, 0u32..0x20, 0u32..40).prop_map(|(fd, group, countable)| Op::Read {
            fd,
            group,
            countable
        }),
        (0u8..3).prop_map(Op::SetPolicy),
    ]
}

/// One step in the life of a set of handles, on tracked counters only.
#[derive(Debug, Clone)]
enum Life {
    Open,
    Get {
        fd: usize,
        counter: usize,
    },
    Close(usize),
    /// Driver recovery revokes every open fd; a fresh open follows it.
    Revoke,
    /// The victim renders a frame and the clock moves past it.
    Render,
    Read {
        fd: usize,
        counter: usize,
    },
}

fn arb_life() -> impl Strategy<Value = Life> {
    prop_oneof![
        Just(Life::Open),
        (0usize..8, 0usize..NUM_TRACKED).prop_map(|(fd, counter)| Life::Get { fd, counter }),
        (0usize..8).prop_map(Life::Close),
        Just(Life::Revoke),
        Just(Life::Render),
        (0usize..8, 0usize..NUM_TRACKED).prop_map(|(fd, counter)| Life::Read { fd, counter }),
    ]
}

/// A block-read entry, or a reservation request, for one tracked counter.
fn entry(counter: usize) -> (u32, u32) {
    let id = ALL_TRACKED[counter].id();
    (id.group.kgsl_id(), id.countable)
}

/// Runs `ops` on a fresh device: nothing panics, and once a `DenyAll`
/// policy is set every get and read is refused.
fn run_ioctls(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let device = device();
    let mut fds: Vec<KgslFd> = Vec::new();
    let mut denied_everything = false;

    for op in ops {
        match op {
            Op::Open(domain) => {
                fds.push(device.open(1000 + fds.len() as u32, domain).expect("open never fails"));
            }
            Op::Close(i) => {
                if let Some(fd) = fds.get(i).copied() {
                    let _ = device.close(fd);
                    fds.remove(i);
                }
            }
            Op::Get { fd, group, countable } => {
                if let Some(fd) = fds.get(fd).copied() {
                    let mut get =
                        KgslPerfcounterGet { groupid: group, countable, ..Default::default() };
                    let r = device.ioctl(
                        fd,
                        IOCTL_KGSL_PERFCOUNTER_GET,
                        IoctlRequest::PerfcounterGet(&mut get),
                    );
                    if denied_everything {
                        // Target validation precedes the policy check,
                        // so invalid targets still fail with EINVAL.
                        prop_assert!(
                            matches!(r, Err(Errno::Eacces) | Err(Errno::Einval)),
                            "DenyAll must deny gets, got {r:?}"
                        );
                    }
                }
            }
            Op::Put { fd, group, countable } => {
                if let Some(fd) = fds.get(fd).copied() {
                    let put = KgslPerfcounterPut { groupid: group, countable };
                    let _ = device.ioctl(
                        fd,
                        IOCTL_KGSL_PERFCOUNTER_PUT,
                        IoctlRequest::PerfcounterPut(put),
                    );
                }
            }
            Op::Read { fd, group, countable } => {
                if let Some(fd) = fds.get(fd).copied() {
                    let mut reads = [KgslPerfcounterReadGroup::new(group, countable)];
                    let r = device.ioctl(
                        fd,
                        IOCTL_KGSL_PERFCOUNTER_READ,
                        IoctlRequest::PerfcounterRead(&mut reads),
                    );
                    if denied_everything {
                        prop_assert!(
                            matches!(r, Err(Errno::Eacces) | Err(Errno::Einval)),
                            "DenyAll must deny reads, got {r:?}"
                        );
                    }
                    if r.is_ok() {
                        // Nothing ever renders in this test, so every
                        // successful read observes a quiescent counter.
                        prop_assert_eq!(reads[0].value, 0);
                    }
                }
            }
            Op::SetPolicy(which) => {
                let policy = match which {
                    0 => AccessPolicy::Unrestricted,
                    1 => AccessPolicy::DenyAll,
                    _ => AccessPolicy::role_based([SelinuxDomain::GpuProfiler]),
                };
                denied_everything = matches!(policy, AccessPolicy::DenyAll);
                device.set_policy(policy);
            }
        }
    }
    Ok(())
}

/// A case `arbitrary_ioctl_sequences_never_panic` once failed on: three
/// opens, `DenyAll`, then a get on group 8, which no tracked counter uses.
#[test]
fn a_get_on_an_untracked_group_under_deny_all_is_refused() {
    let ops = vec![
        Op::Open(SelinuxDomain::UntrustedApp),
        Op::Open(SelinuxDomain::UntrustedApp),
        Op::Open(SelinuxDomain::UntrustedApp),
        Op::SetPolicy(1),
        Op::Get { fd: 0, group: 8, countable: 0 },
    ];
    run_ioctls(ops).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_ioctl_sequences_never_panic(ops in prop::collection::vec(arb_op(), 0..60)) {
        run_ioctls(ops)?;
    }

    #[test]
    fn get_put_refcounts_balance(reps in 1usize..12) {
        let device = device();
        let fd = device.open(1, SelinuxDomain::UntrustedApp).unwrap();
        for _ in 0..reps {
            let mut get = KgslPerfcounterGet {
                groupid: KGSL_PERFCOUNTER_GROUP_LRZ,
                countable: 14,
                ..Default::default()
            };
            device.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get)).unwrap();
        }
        let put = KgslPerfcounterPut { groupid: KGSL_PERFCOUNTER_GROUP_LRZ, countable: 14 };
        for _ in 0..reps {
            device.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put)).unwrap();
        }
        // One more put than get must fail.
        prop_assert_eq!(
            device.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, IoctlRequest::PerfcounterPut(put)),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn closed_and_revoked_fds_are_ebadf_and_the_rest_keep_their_state(
        lives in prop::collection::vec(arb_life(), 0..80)
    ) {
        let mut device = device();
        let mut frame = DrawList::new(256, 256);
        frame.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
        // Every fd handed out, with the counters it reserved while open;
        // `None` once it is closed or revoked.
        let mut fds: Vec<(KgslFd, Option<Vec<usize>>)> = Vec::new();
        for life in lives {
            match life {
                Life::Open => {
                    let fd = device.open(1, SelinuxDomain::UntrustedApp).unwrap();
                    fds.push((fd, Some(Vec::new())));
                }
                Life::Get { fd, counter } => {
                    if let Some((fd, held)) = fds.get_mut(fd) {
                        let (groupid, countable) = entry(counter);
                        let mut get = KgslPerfcounterGet { groupid, countable, ..Default::default() };
                        let r = device.ioctl(*fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get));
                        match held {
                            Some(held) => {
                                prop_assert_eq!(r, Ok(()));
                                held.push(counter);
                            }
                            None => prop_assert_eq!(r, Err(Errno::Ebadf)),
                        }
                    }
                }
                Life::Close(i) => {
                    if let Some((fd, held)) = fds.get_mut(i) {
                        let expected = if held.take().is_some() { Ok(()) } else { Err(Errno::Ebadf) };
                        prop_assert_eq!(device.close(*fd), expected);
                    }
                }
                Life::Revoke => {
                    let at = device.now() + SimDuration::from_millis(1);
                    device.install_fault_plan(&FaultPlan::new(0).at(at, FaultEvent::RevokeFds));
                    device.advance_clock(at);
                    // The open delivers the revocation, then hands out a
                    // fresh fd on the far side of it.
                    let fresh = device.open(1, SelinuxDomain::UntrustedApp).unwrap();
                    for (_, held) in &mut fds {
                        *held = None;
                    }
                    fds.push((fresh, Some(Vec::new())));
                }
                Life::Render => {
                    let now = device.now();
                    let end = device.gpu_mut().submit(&frame, now).end;
                    device.advance_clock(end);
                }
                Life::Read { fd, counter } => {
                    if let Some((fd, held)) = fds.get(fd) {
                        let (groupid, countable) = entry(counter);
                        let mut reads = [KgslPerfcounterReadGroup::new(groupid, countable)];
                        let r = device.ioctl(*fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads));
                        // Reservations are device-wide: any open handle's
                        // reservation makes the counter readable.
                        let reserved = fds.iter().filter_map(|(_, h)| h.as_ref()).any(|h| h.contains(&counter));
                        match held {
                            None => prop_assert_eq!(r, Err(Errno::Ebadf)),
                            Some(_) if !reserved => prop_assert_eq!(r, Err(Errno::Einval)),
                            Some(_) => {
                                prop_assert_eq!(r, Ok(()));
                                let now = device.now();
                                let shown = device.gpu_mut().counters_at(now)[ALL_TRACKED[counter]];
                                prop_assert_eq!(reads[0].value, shown);
                            }
                        }
                    }
                }
            }
        }
    }
}
