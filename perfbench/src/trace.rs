//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each layer's public functions.
//!
//! A span is (layer, start, end, parent, session). Its self time is its
//! duration minus the part its child spans cover; per-layer self times are
//! accumulated for every span, while the spans themselves are kept in memory
//! up to a cap and written out as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The layers the benchmark times, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One traced session (root).
    Session,
    /// Recording the session's trace with `Sampler::sample_until`.
    Tap,
    /// `UiSimulation::new` / `advance_to` (android-ui, with the adreno-sim
    /// rendering it drives).
    AndroidUi,
    /// `Sampler::read_once` (kgsl).
    Kgsl,
    /// `Sampler::open` (kgsl).
    KgslOpen,
    /// Streaming analysis of the recorded trace (core).
    Analysis,
    /// `extract_deltas_with_resets` on the recorded trace (core).
    Extract,
    /// One `FleetSession::step` quantum (core.fleet).
    FleetStep,
    /// One `SplitSessionTask::step` quantum (wire).
    WireStep,
    /// One fleet round: building the resident sessions and driving them.
    Round,
}

const LAYERS: usize = 10;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Session => "session",
            Layer::Tap => "tap.sample_until",
            Layer::AndroidUi => "android-ui",
            Layer::Kgsl => "kgsl.read_once",
            Layer::KgslOpen => "kgsl.open",
            Layer::Analysis => "core.analysis",
            Layer::Extract => "core.extract",
            Layer::FleetStep => "core.fleet.step",
            Layer::WireStep => "wire.step",
            Layer::Round => "fleet.round",
        }
    }
}

/// Self time and span count per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    self_ns: [u64; LAYERS],
    spans: [u64; LAYERS],
}

impl LayerTotals {
    /// Σ self time of the layer's spans, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Number of spans of the layer.
    pub fn spans(&self, layer: Layer) -> u64 {
        self.spans[layer.index()]
    }
}

/// No parent / not stored.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    session: u32,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    stored: u32,
}

/// Handle of an open span; close spans in reverse order of opening.
#[must_use]
pub struct SpanId(usize);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    cap: usize,
    dropped: u64,
    totals: LayerTotals,
}

impl Tracer {
    /// A recorder keeping at most `cap` spans for the written trace.
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            totals: LayerTotals::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn store(&mut self, rec: SpanRec) -> u32 {
        if self.spans.len() < self.cap {
            self.spans.push(rec);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NONE
        }
    }

    /// Opens a span of `layer` for `session`, as a child of the innermost
    /// open span.
    pub fn open(&mut self, layer: Layer, session: u32) -> SpanId {
        let parent = self.stack.last().map_or(NONE, |o| o.stored);
        let start_ns = self.now_ns();
        let stored = self.store(SpanRec { layer, start_ns, end_ns: start_ns, parent, session });
        self.stack.push(Open { layer, start_ns, child_ns: 0, stored });
        SpanId(self.stack.len() - 1)
    }

    /// Closes the innermost span and returns its duration, ns.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span.
    pub fn close(&mut self, id: SpanId) -> u64 {
        assert_eq!(id.0 + 1, self.stack.len(), "spans close innermost first");
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("an open span");
        let duration = end_ns - open.start_ns;
        self.account(open.layer, duration - open.child_ns.min(duration));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if open.stored != NONE {
            self.spans[open.stored as usize].end_ns = end_ns;
        }
        duration
    }

    /// Records a finished leaf span measured elsewhere (a fleet worker),
    /// as a child of the innermost open span.
    pub fn leaf(&mut self, layer: Layer, session: u32, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.stack.last().map_or(NONE, |o| o.stored);
        self.store(SpanRec { layer, start_ns, end_ns, parent, session });
        self.account(layer, end_ns - start_ns);
    }

    fn account(&mut self, layer: Layer, self_ns: u64) {
        self.totals.self_ns[layer.index()] += self_ns;
        self.totals.spans[layer.index()] += 1;
    }

    /// Per-layer totals so far.
    pub fn totals(&self) -> LayerTotals {
        self.totals
    }

    /// Writes the kept spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto) to `path`, one thread row per session.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{}}}}}",
                s.layer.name(),
                s.session,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NONE { -1 } else { i64::from(s.parent) },
            );
        }
        let _ = write!(out, "\n],\"otherData\":{{\"spans_dropped\":{}}}}}\n", self.dropped);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where a run writes its trace: beside the benchmark's own build output,
/// so it stays inside the checkout and out of version control.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let target = exe.parent().and_then(Path::parent).unwrap_or(Path::new("."));
    target.join("perfbench-traces").join(format!("{workload}-{seed}.json"))
}
