//! The yardstick: a frozen reference kernel, timed in short slices between
//! calls into the program, whose measured rate normalises every host time
//! the benchmark reports.
//!
//! The host this benchmark runs on is shared: identical code runs ±14 %
//! apart from one run to the next, and the slow runs burn more CPU for the
//! same work. A kernel that never changes, run a few percent of the time on
//! the same thread (or, in `fleet`, on the same worker ring), slows down
//! with the host. Every host-time metric is therefore reported as
//! `raw × measured_rate / nominal_rate` (times) or
//! `raw × nominal_rate / measured_rate` (rates): the value the program would
//! have shown on a host where the kernel runs at `nominal_rate`.
//!
//! The kernel is part of the measuring instrument. Changing it, its slice
//! size or its cadence changes every scaled number, so it is frozen: the
//! checksum below pins the work one slice does.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kernel iterations in one slice (about 3 ms on a 2-vCPU x86-64 container).
pub const SLICE_ITERS: u64 = 80_000;

/// What [`reference_kernel`] returns for [`SLICE_ITERS`]. A different value
/// means the kernel's work changed, so its rate would no longer be
/// comparable with the nominal rate.
const SLICE_CHECKSUM: u64 = 2_841_787_270_016_663_920;

/// Wall-clock time between the starts of consecutive slices.
pub const CADENCE: Duration = Duration::from_millis(100);

/// CPU time other threads may show during a slice of a single-threaded
/// phase before the slice counts as disturbed: the two clocks are read
/// apart, and an interrupt between the reads is charged to the process.
const GUARD_SLACK_NS: u64 = 250_000;

/// Size of the kernel's lookup table (16 KiB, L1-resident).
const TABLE: usize = 2048;

/// Compute iterations per map-churn iteration (about a quarter of the
/// kernel's time goes to the churn).
const CHURN_EVERY: u64 = 7;

/// Live entries of the churned map (~300 KiB of vectors: L2-sized).
const LIVE: u64 = 512;

/// The reference kernel. Frozen. About three quarters of its time is
/// integer mixing with dependent lookups in an L1-resident table, a small
/// floating-point accumulation and a data-dependent branch — the
/// instruction mix of the simulator's fingerprinting and the classifier's
/// distance scans. The rest churns a hash map of 64 B – 1 KiB vectors
/// (allocate, fill, insert, drop the replaced one) over an L2-sized live
/// set, like the simulator's per-frame allocations and render caches. On
/// a shared host the program's speed varies from run to run more than pure
/// compute does; the churn makes the kernel vary with it.
#[inline(never)]
pub fn reference_kernel(iters: u64) -> u64 {
    const MASK: usize = TABLE - 1;
    let mut table = [0u64; TABLE];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for slot in table.iter_mut() {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *slot = z ^ (z >> 31);
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut acc = [0.0f64; 4];
    for i in 0..iters {
        let mut idx = (h as usize) & MASK;
        for _ in 0..4 {
            let v = table[idx];
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
            table[idx] = v.wrapping_add(i);
            idx = (h as usize) & MASK;
        }
        let f = (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        for (k, a) in acc.iter_mut().enumerate() {
            let d = f - 0.25 * k as f64;
            *a = *a * 0.999_023_437_5 + d * d;
        }
        if h & 3 == 0 {
            h = h.wrapping_add(acc[0].to_bits());
        } else {
            h ^= acc[3].to_bits() >> 7;
        }
    }
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..iters / CHURN_EVERY {
        let n = 8 + (i.wrapping_mul(2_654_435_761) % 120);
        let v: Vec<u64> = (0..n).map(|k| k ^ i).collect();
        h = h.wrapping_add(v.iter().sum::<u64>());
        map.insert(i % LIVE, v);
    }
    acc.iter().fold(h ^ map.len() as u64, |s, a| s.rotate_left(13) ^ a.to_bits())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the whole
    // call, and both clock ids exist for every Linux process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time used so far by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time used so far by all threads of the process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Threads of this process right now (`/proc/self/stat`, field 20).
fn thread_count() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    after_comm
        .split(' ')
        .nth(17)
        .and_then(|f| f.parse().ok())
        .expect("stat has a num_threads field")
}

/// One timed run of the kernel.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall time of the slice.
    pub wall_ns: u64,
    /// CPU time the slicing thread spent in it (excludes preemption).
    pub cpu_ns: u64,
    /// Whether a thread of the program other than those allowed ran (or,
    /// on the worker ring, existed) during the slice.
    pub disturbed: bool,
}

/// Runs one slice in a phase allowed `threads` threads.
///
/// With one thread (serial phases) the guard is exact: any CPU time the
/// process used beyond the slicing thread's own means another thread ran.
/// On the worker ring the peer worker legitimately runs, and the kernel
/// brings its CPU time up to date only at scheduler ticks (and, on a
/// virtual CPU, may charge it stolen time), so its share of a 3 ms slice
/// cannot be bounded; there the guard checks instead that no thread beyond
/// the pool and the waiting main thread exists.
pub fn run_slice(threads: u64) -> Slice {
    let process0 = process_cpu_ns();
    let thread0 = thread_cpu_ns();
    let start = Instant::now();
    let checksum = reference_kernel(black_box(SLICE_ITERS));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let thread_ns = thread_cpu_ns() - thread0;
    let process_ns = process_cpu_ns() - process0;
    assert_eq!(checksum, SLICE_CHECKSUM, "the reference kernel's work changed");
    let others_ns = process_ns.saturating_sub(thread_ns);
    let disturbed = thread_count() > threads || (threads == 1 && others_ns > GUARD_SLACK_NS);
    Slice { wall_ns, cpu_ns: thread_ns, disturbed }
}

/// The slices of one phase (set-up, measurement) and the cadence clock that
/// schedules them.
#[derive(Debug)]
pub struct Yardstick {
    threads: u64,
    next: Instant,
    slices: Vec<Slice>,
}

impl Yardstick {
    /// A phase allowed `threads` threads (see [`run_slice`]). The first
    /// slice runs at the first [`Yardstick::tick`].
    pub fn new(threads: u64) -> Self {
        Yardstick { threads, next: Instant::now(), slices: Vec::new() }
    }

    /// Runs a slice if one is due. Call between calls into the program.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.next = now + CADENCE;
            self.slices.push(run_slice(self.threads));
        }
    }

    /// Records a slice run elsewhere (a fleet reference task).
    pub fn push(&mut self, slice: Slice) {
        self.slices.push(slice);
    }

    /// Takes over the slices of another phase's yardstick.
    pub fn absorb(&mut self, other: Yardstick) {
        self.slices.extend(other.slices);
    }

    /// Runs a final slice unconditionally, so even a phase shorter than the
    /// cadence is bracketed by two.
    pub fn close(&mut self) {
        self.slices.push(run_slice(self.threads));
    }

    /// Number of slices run.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Total wall time spent in slices, ns (excluded from measured time).
    pub fn slice_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.wall_ns).sum()
    }

    /// Total CPU time spent in slices, ns (excluded from measured time).
    pub fn slice_cpu_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.cpu_ns).sum()
    }

    /// Slices during which another thread of the program ran.
    pub fn disturbed(&self) -> usize {
        self.slices.iter().filter(|s| s.disturbed).count()
    }

    /// Each slice's kernel rate, in iterations per second, in slice order.
    /// A single-threaded phase is timed in thread CPU time, so its slices
    /// are too; the worker ring is timed in wall time, so its slices are
    /// too (and then see the CPU contention the sessions see).
    pub fn rates(&self) -> Vec<f64> {
        let serial = self.threads == 1;
        self.slices
            .iter()
            .map(|s| SLICE_ITERS as f64 * 1e9 / if serial { s.cpu_ns } else { s.wall_ns } as f64)
            .collect()
    }

    /// Measured kernel rate over the phase: the median of the slices'
    /// rates, which ignores one-off disturbances but follows a host that is
    /// slow for most of the phase.
    pub fn rate(&self) -> f64 {
        assert!(!self.slices.is_empty(), "a phase must run at least one slice");
        crate::report::percentile(&self.rates(), 0.5)
    }
}

/// The rate around work done between slices `k` and `k + 1` of `rates`
/// ([`Yardstick::rates`]): the mean of the two, or slice `k` alone when it
/// is the last. The host's speed drifts within a run, so a session is
/// scaled by the slices that bracket it rather than by the run's median.
pub fn rate_between(rates: &[f64], k: usize) -> f64 {
    match rates.get(k + 1) {
        Some(next) => (rates[k] + next) / 2.0,
        None => rates[k],
    }
}

/// A [`Yardstick`] shared by the reference tasks of a worker ring: whichever
/// task finds a slice due claims it, so slices keep the wall-clock cadence
/// whatever the ring's length.
#[derive(Debug)]
pub struct SharedYardstick(Mutex<Yardstick>);

impl SharedYardstick {
    /// See [`Yardstick::new`].
    pub fn new(threads: u64) -> Self {
        SharedYardstick(Mutex::new(Yardstick::new(threads)))
    }

    /// Runs a slice on the calling thread if one is due. The lock is not
    /// held while the kernel runs.
    pub fn tick(&self) {
        let threads = {
            let mut ys = self.0.lock().expect("a yardstick holder panicked");
            let now = Instant::now();
            if now < ys.next {
                return;
            }
            ys.next = now + CADENCE;
            ys.threads
        };
        let slice = run_slice(threads);
        self.0.lock().expect("a yardstick holder panicked").push(slice);
    }

    /// The collected slices.
    pub fn into_inner(self) -> Yardstick {
        self.0.into_inner().expect("a yardstick holder panicked")
    }
}
