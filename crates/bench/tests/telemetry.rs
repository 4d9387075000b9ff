//! End-to-end telemetry contract: an instrumented run surfaces spans from
//! every layer of the signal path, the Chrome exporter emits valid trace
//! JSON, and telemetry collection never perturbs deterministic output.
//!
//! All telemetry lands in one process-global registry, so assertions here
//! check *presence* (≥) rather than exact counts — other tests in the same
//! process contribute to the same aggregates.

use bench::experiments::{accuracy, Ctx};
use bench::report::capture;
use minipool::Pool;

/// Runs a small experiment and asserts the snapshot now holds spans from
/// the kgsl, adreno-sim, and core layers plus pipeline counters.
#[test]
fn end_to_end_run_records_spans_from_every_layer() {
    spansight::enable_tracing(4096);
    let track = spansight::register_track("telemetry-test");
    {
        let _track = spansight::enter_track(track);
        let ctx = Ctx::with_pool(0.1, Pool::sequential());
        let ((), _text) = capture(|| accuracy::fig11(&ctx));
    }
    spansight::flush();

    let snap = spansight::snapshot();
    let mine = snap.for_track(track);
    let span_keys: Vec<(&str, &str)> = mine.spans.iter().map(|s| (s.cat, s.name)).collect();
    // Block reads are counted, not timed per call; every sampler open
    // still times its counter reservations.
    for expect in [
        ("kgsl", "ioctl.perfcounter_get"),
        ("core", "sampler.sample_until"),
        ("core", "service.eavesdrop"),
    ] {
        assert!(span_keys.contains(&expect), "missing span {expect:?} in {span_keys:?}");
    }
    assert!(mine.counter("core.sampler.acquired") > 0);
    // Every attempted read slot issues at least one block read, and the
    // devices publish their call counts when they drop, inside the run.
    assert!(
        mine.counter("kgsl.ioctl.calls") >= mine.counter("core.sampler.attempted"),
        "kgsl.ioctl.calls {} < core.sampler.attempted {}",
        mine.counter("kgsl.ioctl.calls"),
        mine.counter("core.sampler.attempted")
    );
    // The streaming pipeline interleaves its stages per sample instead of
    // running spanned whole-trace passes; stage activity surfaces as
    // counters.
    assert!(mine.counter("core.trace.deltas") > 0);
    assert!(mine.counter("core.service.sessions") > 0);
    // The layer cache is process-global, so a sibling test may have warmed
    // it and no layer is computed here (no "adreno" span). Every victim GPU
    // publishes its frame tally when it drops, inside the run.
    assert!(
        mine.counter("adreno.incremental.frames") > 0,
        "adreno-sim layer produced no telemetry"
    );
    assert!(
        mine.hists.iter().any(|h| h.name == "core.sampler.slot_retries"),
        "slot-retry histogram missing"
    );
}

/// The Chrome exporter's output parses as JSON and carries the expected
/// trace-event structure for a real instrumented run.
#[test]
fn chrome_export_of_real_run_is_valid_json() {
    spansight::enable_tracing(4096);
    let track = spansight::register_track("telemetry-json-test");
    {
        let _track = spansight::enter_track(track);
        let ctx = Ctx::with_pool(0.1, Pool::sequential());
        let ((), _text) = capture(|| accuracy::fig11(&ctx));
    }
    let (events, _dropped) = spansight::take_events();
    assert!(!events.is_empty(), "tracing was enabled; events expected");

    let json = spansight::chrome::render(&events, &spansight::snapshot().tracks);
    spansight::chrome::validate_json(&json).unwrap_or_else(|at| {
        panic!("invalid JSON at byte {at}: {}", &json[at..(at + 80).min(json.len())])
    });
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "complete spans expected in trace");
    assert!(json.contains("\"cat\":\"kgsl\""));
}
