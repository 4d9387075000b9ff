//! # kgsl — simulated Kernel Graphics Support Layer
//!
//! The OS-boundary substrate of the reproduction: a software model of
//! Qualcomm's `/dev/kgsl-3d0` device file, which is the interface the
//! attack uses to read **global** GPU performance counters from an
//! unprivileged Android app (§4 of the paper).
//!
//! The crate provides:
//!
//! * [`abi`] — the `msm_kgsl.h` request codes and struct layouts (Fig 9);
//! * [`device::KgslDevice`] — `open`/`ioctl`/`close` semantics with the real
//!   driver's validation rules (reservation before read, `EINVAL`/`EBUSY`/
//!   `EBADF` paths) plus the `gpu_busy_percentage` sysfs endpoint. The
//!   device owns the victim's GPU and clock, and the victim simulation owns
//!   the device, so a block read takes no lock;
//! * [`policy`] — the §9.2 mitigation: SELinux-style role-based access
//!   control over counter visibility;
//! * [`obfuscate`] — the §9.3 mitigation: random decoy GPU workloads;
//! * [`fault`] — deterministic fault injection (transient `EBUSY`/`EINTR`,
//!   GPU slumber, fd revocation, mid-session policy flips) for robustness
//!   testing of everything built on the device.
//!
//! ```
//! use adreno_sim::{Gpu, GpuModel};
//! use kgsl::abi::*;
//! use kgsl::{KgslDevice, SelinuxDomain};
//!
//! # fn main() -> Result<(), kgsl::Errno> {
//! let dev = KgslDevice::new(Gpu::new(GpuModel::Adreno650));
//! // Any app may open the device file and reserve a counter...
//! let fd = dev.open(4242, SelinuxDomain::UntrustedApp)?;
//! let mut get = KgslPerfcounterGet {
//!     groupid: KGSL_PERFCOUNTER_GROUP_LRZ,
//!     countable: 14,
//!     ..Default::default()
//! };
//! dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod abi;
pub mod device;
pub mod error;
pub mod fault;
pub mod gles;
pub mod obfuscate;
pub mod policy;

pub use device::{KgslDevice, KgslFd};
pub use error::{DeviceResult, Errno};
pub use fault::{expand_poisson, FaultEvent, FaultLog, FaultPlan};
pub use obfuscate::{ObfuscationConfig, Obfuscator};
pub use policy::{AccessPolicy, CounterVisibility, SelinuxDomain};
