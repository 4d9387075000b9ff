//! The `GL_AMD_performance_monitor` extension surface (§3.3).
//!
//! This is the *documented* way to touch Adreno performance counters from
//! userspace: enumerate groups, enumerate countables, read their string
//! identifiers, and run a monitor over a span of your own rendering. The
//! paper uses the enumeration half to discover the Table 1 counters — and
//! then abandons the extension, because a monitor only reports the *local*
//! counter activity of the calling application (\[28\] in the paper), which
//! for a background attacker is zero. The global values come from the raw
//! device file instead ([`crate::KgslDevice`]).

use adreno_sim::catalog;
use adreno_sim::counters::{CounterGroup, CounterId, CounterSet};
use adreno_sim::time::SimInstant;

use crate::device::KgslDevice;

/// `glGetPerfMonitorGroupsAMD`: the available counter groups.
pub fn get_perf_monitor_groups() -> Vec<CounterGroup> {
    vec![CounterGroup::Vpc, CounterGroup::Ras, CounterGroup::Lrz]
}

/// `glGetPerfMonitorCountersAMD`: the countables of one group.
pub fn get_perf_monitor_counters(group: CounterGroup) -> Vec<CounterId> {
    (0..catalog::group_len(group)).map(|i| CounterId::new(group, i)).collect()
}

/// `glGetPerfMonitorGroupStringAMD`.
pub fn get_perf_monitor_group_string(group: CounterGroup) -> &'static str {
    catalog::group_name(group)
}

/// `glGetPerfMonitorCounterStringAMD`: the vendor name of a countable, or
/// `None` for a countable the group does not have.
pub fn get_perf_monitor_counter_string(id: CounterId) -> Option<&'static str> {
    catalog::countable_name(id)
}

/// A local performance monitor (`glBeginPerfMonitorAMD` /
/// `glEndPerfMonitorAMD`).
///
/// Real monitors report the GPU work submitted *by the calling context*
/// between begin and end. The attacking application renders nothing, so its
/// monitors always read zero — the §3.3 dead end that motivates the ioctl
/// path.
///
/// # Examples
///
/// ```
/// use android_ui::{SimConfig, UiSimulation};
/// use adreno_sim::time::SimInstant;
/// use kgsl::gles::PerfMonitor;
///
/// let mut sim = UiSimulation::new(SimConfig::default());
/// let monitor = PerfMonitor::begin(sim.device());
/// sim.advance_to(SimInstant::from_millis(500)); // the victim renders…
/// let local = monitor.end();
/// assert!(local.is_zero(), "…but none of it is the monitor owner's work");
/// ```
#[derive(Debug)]
pub struct PerfMonitor {
    /// GPU work submitted by this context between begin and end. The
    /// simulation never attributes work to the attacking context, so this
    /// stays at zero; a victim-side profiler would accumulate here.
    local: CounterSet,
    started_at: SimInstant,
}

impl PerfMonitor {
    /// `glBeginPerfMonitorAMD`, stamped with the device's current time.
    pub fn begin(device: &KgslDevice) -> Self {
        PerfMonitor { local: CounterSet::ZERO, started_at: device.now() }
    }

    /// When the monitor started.
    pub fn started_at(&self) -> SimInstant {
        self.started_at
    }

    /// Attributes locally-rendered work to this monitor — what the GL
    /// driver does implicitly for every draw call the context makes. The
    /// attacking app never calls this; a profiler measuring its own
    /// rendering would.
    pub fn attribute_local_work(&mut self, work: CounterSet) {
        self.local += work;
    }

    /// `glEndPerfMonitorAMD` + `glGetPerfMonitorCounterDataAMD`: the local
    /// counter activity of this context over the monitored span.
    pub fn end(self) -> CounterSet {
        self.local
    }
}

/// The §3.3 discovery procedure, verbatim: iterate every group and
/// countable, read its string identifier, and keep the ones whose names
/// mark them as overdraw-related (the LRZ/RAS/VPC counters of Table 1).
pub fn discover_overdraw_counters() -> Vec<CounterId> {
    let wanted = [
        "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ",
        "PERF_LRZ_FULL_8X8_TILES",
        "PERF_LRZ_PARTIAL_8X8_TILES",
        "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ",
        "PERF_RAS_SUPERTILE_ACTIVE_CYCLES",
        "PERF_RAS_SUPER_TILES",
        "PERF_RAS_8X4_TILES",
        "PERF_RAS_FULLY_COVERED_8X4_TILES",
        "PERF_VPC_PC_PRIMITIVES",
        "PERF_VPC_SP_COMPONENTS",
        "PERF_VPC_LRZ_ASSIGN_PRIMITIVES",
    ];
    let mut out = Vec::new();
    for group in get_perf_monitor_groups() {
        for id in get_perf_monitor_counters(group) {
            if let Some(name) = get_perf_monitor_counter_string(id) {
                if wanted.contains(&name) {
                    out.push(id);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::ALL_TRACKED;

    #[test]
    fn discovery_finds_exactly_the_table1_counters() {
        let mut discovered = discover_overdraw_counters();
        let mut expected: Vec<CounterId> = ALL_TRACKED.iter().map(|c| c.id()).collect();
        discovered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(discovered, expected);
    }

    #[test]
    fn every_group_enumerates_nonempty() {
        for group in get_perf_monitor_groups() {
            let counters = get_perf_monitor_counters(group);
            assert!(!counters.is_empty());
            assert!(!get_perf_monitor_group_string(group).is_empty());
            for id in counters {
                assert!(get_perf_monitor_counter_string(id).is_some());
            }
        }
    }

    #[test]
    fn profiler_sees_its_own_work_only() {
        use adreno_sim::counters::TrackedCounter;
        use adreno_sim::{Gpu, GpuModel};

        let device = KgslDevice::new(Gpu::new(GpuModel::Adreno650));
        let mut mon = PerfMonitor::begin(&device);
        let mut own = CounterSet::ZERO;
        own[TrackedCounter::VpcPcPrimitives] = 42;
        mon.attribute_local_work(own);
        assert_eq!(mon.end()[TrackedCounter::VpcPcPrimitives], 42);
    }
}
