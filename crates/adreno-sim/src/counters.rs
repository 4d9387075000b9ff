//! GPU performance counters.
//!
//! Mirrors the counter naming of Qualcomm Adreno GPUs as exposed through the
//! `GL_AMD_performance_monitor` extension and the KGSL driver. The attack in
//! the paper (Table 1) uses eleven counters from three groups:
//!
//! | Group | ID | String identifier |
//! |-------|----|-------------------|
//! | LRZ   | 13 | `PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ` |
//! | LRZ   | 14 | `PERF_LRZ_FULL_8X8_TILES` |
//! | LRZ   | 15 | `PERF_LRZ_PARTIAL_8X8_TILES` |
//! | LRZ   | 18 | `PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ` |
//! | RAS   | 1  | `PERF_RAS_SUPERTILE_ACTIVE_CYCLES` |
//! | RAS   | 4  | `PERF_RAS_SUPER_TILES` |
//! | RAS   | 5  | `PERF_RAS_8X4_TILES` |
//! | RAS   | 8  | `PERF_RAS_FULLY_COVERED_8X4_TILES` |
//! | VPC   | 9  | `PERF_VPC_PC_PRIMITIVES` |
//! | VPC   | 10 | `PERF_VPC_SP_COMPONENTS` |
//! | VPC   | 12 | `PERF_VPC_LRZ_ASSIGN_PRIMITIVES` |
//!
//! Counters are free-running and monotonic: the hardware only ever adds to
//! them, and readers observe cumulative values.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// A hardware counter group, with the group IDs used by the KGSL driver
/// (`msm_kgsl.h`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterGroup {
    /// Vertex cache (`KGSL_PERFCOUNTER_GROUP_VPC`).
    Vpc,
    /// Rasterizer (`KGSL_PERFCOUNTER_GROUP_RAS`).
    Ras,
    /// Low-resolution-Z pass (`KGSL_PERFCOUNTER_GROUP_LRZ`).
    Lrz,
}

impl CounterGroup {
    /// The KGSL group id, matching `msm_kgsl.h`.
    pub const fn kgsl_id(self) -> u32 {
        match self {
            CounterGroup::Vpc => 0x5,
            CounterGroup::Ras => 0x7,
            CounterGroup::Lrz => 0x19,
        }
    }
}

impl fmt::Display for CounterGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CounterGroup::Vpc => "VPC",
            CounterGroup::Ras => "RAS",
            CounterGroup::Lrz => "LRZ",
        };
        f.write_str(s)
    }
}

/// Identifies a single hardware counter: a group plus the "countable"
/// selector within that group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId {
    pub group: CounterGroup,
    pub countable: u32,
}

impl CounterId {
    /// Creates a counter id.
    pub const fn new(group: CounterGroup, countable: u32) -> Self {
        CounterId { group, countable }
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.group, self.countable)
    }
}

/// The eleven counters the attack tracks (Table 1 of the paper), in a fixed
/// order so that counter vectors can live in flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum TrackedCounter {
    LrzVisiblePrimAfterLrz = 0,
    LrzFull8x8Tiles = 1,
    LrzPartial8x8Tiles = 2,
    LrzVisiblePixelAfterLrz = 3,
    RasSupertileActiveCycles = 4,
    RasSuperTiles = 5,
    Ras8x4Tiles = 6,
    RasFullyCovered8x4Tiles = 7,
    VpcPcPrimitives = 8,
    VpcSpComponents = 9,
    VpcLrzAssignPrimitives = 10,
}

/// Number of tracked counters.
pub const NUM_TRACKED: usize = 11;

/// All tracked counters in index order.
pub const ALL_TRACKED: [TrackedCounter; NUM_TRACKED] = [
    TrackedCounter::LrzVisiblePrimAfterLrz,
    TrackedCounter::LrzFull8x8Tiles,
    TrackedCounter::LrzPartial8x8Tiles,
    TrackedCounter::LrzVisiblePixelAfterLrz,
    TrackedCounter::RasSupertileActiveCycles,
    TrackedCounter::RasSuperTiles,
    TrackedCounter::Ras8x4Tiles,
    TrackedCounter::RasFullyCovered8x4Tiles,
    TrackedCounter::VpcPcPrimitives,
    TrackedCounter::VpcSpComponents,
    TrackedCounter::VpcLrzAssignPrimitives,
];

impl TrackedCounter {
    /// The flat vector index of this counter.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The `(group, countable)` pair of this counter, matching Table 1.
    pub const fn id(self) -> CounterId {
        use CounterGroup::*;
        use TrackedCounter::*;
        match self {
            LrzVisiblePrimAfterLrz => CounterId::new(Lrz, 13),
            LrzFull8x8Tiles => CounterId::new(Lrz, 14),
            LrzPartial8x8Tiles => CounterId::new(Lrz, 15),
            LrzVisiblePixelAfterLrz => CounterId::new(Lrz, 18),
            RasSupertileActiveCycles => CounterId::new(Ras, 1),
            RasSuperTiles => CounterId::new(Ras, 4),
            Ras8x4Tiles => CounterId::new(Ras, 5),
            RasFullyCovered8x4Tiles => CounterId::new(Ras, 8),
            VpcPcPrimitives => CounterId::new(Vpc, 9),
            VpcSpComponents => CounterId::new(Vpc, 10),
            VpcLrzAssignPrimitives => CounterId::new(Vpc, 12),
        }
    }

    /// The string identifier reported by `GetPerfMonitorCounterStringAMD`.
    pub const fn name(self) -> &'static str {
        use TrackedCounter::*;
        match self {
            LrzVisiblePrimAfterLrz => "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ",
            LrzFull8x8Tiles => "PERF_LRZ_FULL_8X8_TILES",
            LrzPartial8x8Tiles => "PERF_LRZ_PARTIAL_8X8_TILES",
            LrzVisiblePixelAfterLrz => "PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ",
            RasSupertileActiveCycles => "PERF_RAS_SUPERTILE_ACTIVE_CYCLES",
            RasSuperTiles => "PERF_RAS_SUPER_TILES",
            Ras8x4Tiles => "PERF_RAS_8X4_TILES",
            RasFullyCovered8x4Tiles => "PERF_RAS_FULLY_COVERED_8X4_TILES",
            VpcPcPrimitives => "PERF_VPC_PC_PRIMITIVES",
            VpcSpComponents => "PERF_VPC_SP_COMPONENTS",
            VpcLrzAssignPrimitives => "PERF_VPC_LRZ_ASSIGN_PRIMITIVES",
        }
    }

    /// Looks a tracked counter up from its `(group, countable)` pair: the
    /// inverse of [`TrackedCounter::id`].
    pub const fn from_id(id: CounterId) -> Option<TrackedCounter> {
        use CounterGroup::*;
        use TrackedCounter::*;
        match (id.group, id.countable) {
            (Lrz, 13) => Some(LrzVisiblePrimAfterLrz),
            (Lrz, 14) => Some(LrzFull8x8Tiles),
            (Lrz, 15) => Some(LrzPartial8x8Tiles),
            (Lrz, 18) => Some(LrzVisiblePixelAfterLrz),
            (Ras, 1) => Some(RasSupertileActiveCycles),
            (Ras, 4) => Some(RasSuperTiles),
            (Ras, 5) => Some(Ras8x4Tiles),
            (Ras, 8) => Some(RasFullyCovered8x4Tiles),
            (Vpc, 9) => Some(VpcPcPrimitives),
            (Vpc, 10) => Some(VpcSpComponents),
            (Vpc, 12) => Some(VpcLrzAssignPrimitives),
            _ => None,
        }
    }
}

impl fmt::Display for TrackedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A vector of the eleven tracked counter values: either a cumulative
/// snapshot or a delta between two snapshots.
///
/// `CounterSet` supports element-wise arithmetic so that snapshots can be
/// differenced into deltas and deltas accumulated back into snapshots.
///
/// # Examples
///
/// ```
/// use adreno_sim::counters::{CounterSet, TrackedCounter};
///
/// let mut a = CounterSet::ZERO;
/// a[TrackedCounter::VpcPcPrimitives] = 10;
/// let mut b = a;
/// b[TrackedCounter::VpcPcPrimitives] = 25;
/// let delta = b - a;
/// assert_eq!(delta[TrackedCounter::VpcPcPrimitives], 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterSet {
    values: [u64; NUM_TRACKED],
}

impl CounterSet {
    /// All-zero counter set.
    pub const ZERO: CounterSet = CounterSet { values: [0; NUM_TRACKED] };

    /// Creates a set from a raw value array in [`ALL_TRACKED`] order.
    pub const fn from_array(values: [u64; NUM_TRACKED]) -> Self {
        CounterSet { values }
    }

    /// The raw value array in [`ALL_TRACKED`] order.
    pub const fn as_array(&self) -> &[u64; NUM_TRACKED] {
        &self.values
    }

    /// Sum of all elements (a scalar "total activity" measure).
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Whether all elements are zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Element-wise checked subtraction: `None` if any element would
    /// underflow. Used by classifiers that peel a known signature off a
    /// composite delta.
    pub fn checked_sub(&self, rhs: &CounterSet) -> Option<CounterSet> {
        let mut out = [0u64; NUM_TRACKED];
        for (o, (a, b)) in out.iter_mut().zip(self.values.iter().zip(&rhs.values)) {
            *o = a.checked_sub(*b)?;
        }
        Some(CounterSet { values: out })
    }

    /// Element-wise multiplication by a scalar.
    pub fn scaled(&self, factor: u64) -> CounterSet {
        let mut out = [0u64; NUM_TRACKED];
        for (o, v) in out.iter_mut().zip(&self.values) {
            *o = v * factor;
        }
        CounterSet { values: out }
    }

    /// Element-wise saturating subtraction — useful when comparing snapshots
    /// that may have been taken out of order.
    pub fn saturating_sub(&self, rhs: &CounterSet) -> CounterSet {
        let mut out = [0u64; NUM_TRACKED];
        for (o, (a, b)) in out.iter_mut().zip(self.values.iter().zip(&rhs.values)) {
            *o = a.saturating_sub(*b);
        }
        CounterSet { values: out }
    }

    /// Euclidean distance between two sets viewed as points in counter
    /// space. Used by the nearest-centroid classifier.
    pub fn distance(&self, rhs: &CounterSet) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..NUM_TRACKED {
            let d = self.values[i] as f64 - rhs.values[i] as f64;
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Converts to an `f64` vector (for classifiers that work in float
    /// space).
    pub fn to_f64(&self) -> [f64; NUM_TRACKED] {
        let mut out = [0.0; NUM_TRACKED];
        for (o, v) in out.iter_mut().zip(&self.values) {
            *o = *v as f64;
        }
        out
    }

    /// Iterates over `(counter, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TrackedCounter, u64)> + '_ {
        ALL_TRACKED.into_iter().map(move |c| (c, self.values[c.index()]))
    }
}

impl Index<TrackedCounter> for CounterSet {
    type Output = u64;
    fn index(&self, c: TrackedCounter) -> &u64 {
        &self.values[c.index()]
    }
}

impl IndexMut<TrackedCounter> for CounterSet {
    fn index_mut(&mut self, c: TrackedCounter) -> &mut u64 {
        &mut self.values[c.index()]
    }
}

impl Add for CounterSet {
    type Output = CounterSet;
    fn add(self, rhs: CounterSet) -> CounterSet {
        let mut out = [0u64; NUM_TRACKED];
        for (o, (a, b)) in out.iter_mut().zip(self.values.iter().zip(&rhs.values)) {
            *o = a + b;
        }
        CounterSet { values: out }
    }
}

impl AddAssign for CounterSet {
    fn add_assign(&mut self, rhs: CounterSet) {
        for i in 0..NUM_TRACKED {
            self.values[i] += rhs.values[i];
        }
    }
}

impl Sub for CounterSet {
    type Output = CounterSet;

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any element underflows; in release builds
    /// this wraps (snapshots are monotonic, so a well-ordered pair never
    /// underflows).
    fn sub(self, rhs: CounterSet) -> CounterSet {
        let mut out = [0u64; NUM_TRACKED];
        for i in 0..NUM_TRACKED {
            out[i] = self.values[i].wrapping_sub(rhs.values[i]);
            debug_assert!(
                self.values[i] >= rhs.values[i],
                "counter {} underflow: {} - {}",
                ALL_TRACKED[i].name(),
                self.values[i],
                rhs.values[i]
            );
        }
        CounterSet { values: out }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (c, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", c.id(), v)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ids_match_paper() {
        assert_eq!(
            TrackedCounter::LrzVisiblePrimAfterLrz.id(),
            CounterId::new(CounterGroup::Lrz, 13)
        );
        assert_eq!(TrackedCounter::LrzFull8x8Tiles.id(), CounterId::new(CounterGroup::Lrz, 14));
        assert_eq!(TrackedCounter::LrzPartial8x8Tiles.id(), CounterId::new(CounterGroup::Lrz, 15));
        assert_eq!(
            TrackedCounter::LrzVisiblePixelAfterLrz.id(),
            CounterId::new(CounterGroup::Lrz, 18)
        );
        assert_eq!(
            TrackedCounter::RasSupertileActiveCycles.id(),
            CounterId::new(CounterGroup::Ras, 1)
        );
        assert_eq!(TrackedCounter::RasSuperTiles.id(), CounterId::new(CounterGroup::Ras, 4));
        assert_eq!(TrackedCounter::Ras8x4Tiles.id(), CounterId::new(CounterGroup::Ras, 5));
        assert_eq!(
            TrackedCounter::RasFullyCovered8x4Tiles.id(),
            CounterId::new(CounterGroup::Ras, 8)
        );
        assert_eq!(TrackedCounter::VpcPcPrimitives.id(), CounterId::new(CounterGroup::Vpc, 9));
        assert_eq!(TrackedCounter::VpcSpComponents.id(), CounterId::new(CounterGroup::Vpc, 10));
        assert_eq!(
            TrackedCounter::VpcLrzAssignPrimitives.id(),
            CounterId::new(CounterGroup::Vpc, 12)
        );
    }

    #[test]
    fn group_ids_match_msm_kgsl_h() {
        assert_eq!(CounterGroup::Vpc.kgsl_id(), 0x5);
        assert_eq!(CounterGroup::Ras.kgsl_id(), 0x7);
        assert_eq!(CounterGroup::Lrz.kgsl_id(), 0x19);
    }

    #[test]
    fn tracked_round_trip_by_id() {
        for c in ALL_TRACKED {
            assert_eq!(TrackedCounter::from_id(c.id()), Some(c));
        }
        assert_eq!(TrackedCounter::from_id(CounterId::new(CounterGroup::Lrz, 99)), None);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in ALL_TRACKED.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn set_arithmetic() {
        let mut a = CounterSet::ZERO;
        a[TrackedCounter::Ras8x4Tiles] = 7;
        let mut b = CounterSet::ZERO;
        b[TrackedCounter::Ras8x4Tiles] = 3;
        b[TrackedCounter::VpcSpComponents] = 4;
        let sum = a + b;
        assert_eq!(sum[TrackedCounter::Ras8x4Tiles], 10);
        assert_eq!(sum[TrackedCounter::VpcSpComponents], 4);
        assert_eq!((sum - b)[TrackedCounter::Ras8x4Tiles], 7);
        assert_eq!(sum.total(), 14);
    }

    #[test]
    fn distance_is_euclidean() {
        let mut a = CounterSet::ZERO;
        let mut b = CounterSet::ZERO;
        a[TrackedCounter::LrzFull8x8Tiles] = 3;
        b[TrackedCounter::LrzVisiblePixelAfterLrz] = 4;
        assert!((a.distance(&b) - 5.0).abs() < 1e-9);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn checked_sub_detects_underflow() {
        let mut a = CounterSet::ZERO;
        let mut b = CounterSet::ZERO;
        a[TrackedCounter::VpcPcPrimitives] = 5;
        b[TrackedCounter::VpcPcPrimitives] = 2;
        b[TrackedCounter::Ras8x4Tiles] = 1;
        assert_eq!(a.checked_sub(&b), None, "tiles dim underflows");
        b[TrackedCounter::Ras8x4Tiles] = 0;
        assert_eq!(a.checked_sub(&b).unwrap()[TrackedCounter::VpcPcPrimitives], 3);
    }

    #[test]
    fn scaled_multiplies_elementwise() {
        let mut a = CounterSet::ZERO;
        a[TrackedCounter::Ras8x4Tiles] = 7;
        assert_eq!(a.scaled(3)[TrackedCounter::Ras8x4Tiles], 21);
        assert!(a.scaled(0).is_zero());
    }

    #[test]
    fn saturating_sub_never_panics() {
        let mut a = CounterSet::ZERO;
        let mut b = CounterSet::ZERO;
        a[TrackedCounter::VpcPcPrimitives] = 1;
        b[TrackedCounter::VpcPcPrimitives] = 5;
        assert_eq!(a.saturating_sub(&b)[TrackedCounter::VpcPcPrimitives], 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            TrackedCounter::LrzVisiblePrimAfterLrz.name(),
            "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ"
        );
    }
}
