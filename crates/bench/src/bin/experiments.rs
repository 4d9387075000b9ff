//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- fig17 fig18
//! cargo run --release -p bench --bin experiments -- --scale 4 fig17   # closer to paper scale
//! cargo run --release -p bench --bin experiments -- --jobs 4 all      # 4 workers
//! # regenerate the committed baseline record
//! cargo run --release -p bench --bin experiments -- \
//!     --scale 1 --jobs 1 --bench-out BENCH_experiments.json all
//! ```
//!
//! `--jobs N` sets the worker count for both trial fan-out inside an
//! experiment and experiment-level fan-out when several are selected
//! (default: available parallelism; `--jobs 1` runs everything inline).
//! Output is byte-identical at every worker count: trial inputs are
//! pre-drawn in sequential order and each experiment's report is captured
//! and printed in selection order. `--bench-out PATH` writes the
//! per-experiment wall-clock timings and pipeline telemetry aggregates to
//! `PATH`; without it no record is written, so an ordinary run cannot
//! overwrite the committed `BENCH_experiments.json` baseline. A record or
//! trace that cannot be written fails the run (exit status 1), so a later
//! step never reads a stale file as this run's. `--scale` must be a finite
//! number above 0.
//!
//! Observability: every run collects `spansight` spans/counters/histograms
//! across the whole signal path (kgsl ioctls, adreno-sim renders, the
//! attack pipeline stages). Summary tables go to **stderr** — stdout stays
//! byte-identical to a telemetry-free run — and `--trace-out FILE`
//! additionally records a Chrome trace-event JSON loadable in
//! `chrome://tracing` or Perfetto. See the "Observability" section of
//! EXPERIMENTS.md.
//!
//! See DESIGN.md §3 for the experiment ↔ module index and EXPERIMENTS.md
//! for recorded paper-vs-measured results.

use std::io::Write as _;

use bench::experiments::{Ctx, Runner, CATALOGUE};
use bench::report;
use minipool::Pool;

/// Trace-event buffer capacity when `--trace-out` is given. At the default
/// scale the full suite emits a few million kgsl ioctl spans; the buffer
/// keeps the first ~500k events and counts the rest as dropped.
const TRACE_CAPACITY: usize = 500_000;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--scale N] [--jobs N] [--trace-out FILE] [--bench-out FILE] \
         <name>... | all | list"
    );
    eprintln!("experiments:");
    for (name, what, _) in CATALOGUE {
        eprintln!("  {name:<18} {what}");
    }
    std::process::exit(2)
}

/// Pulls `--flag <value>` out of `args`; exits via `usage` on a malformed
/// value or a missing operand.
fn take_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        usage();
    }
    let value = args[pos + 1].parse().unwrap_or_else(|_| usage());
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Writes the timing + telemetry record to `path`. JSON is assembled by
/// hand — the only strings involved are experiment names from the static
/// table and telemetry identifiers (`kgsl.ioctl.calls`, …), which need no
/// escaping.
fn write_bench_json(
    path: &str,
    jobs: usize,
    scale: f64,
    total_s: f64,
    rows: &[(&str, f64)],
    snap: &spansight::Snapshot,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"total_seconds\": {total_s:.3},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, (name, secs)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{\"name\": \"{name}\", \"seconds\": {secs:.3}}}{comma}\n"));
    }
    out.push_str("  ],\n");
    push_telemetry_json(&mut out, rows, snap);
    out.push_str("}\n");
    std::fs::File::create(path)?.write_all(out.as_bytes())
}

/// Appends the `"telemetry"` object: suite-wide span/counter/histogram
/// aggregates plus per-experiment per-stage span timings.
fn push_telemetry_json(out: &mut String, rows: &[(&str, f64)], snap: &spansight::Snapshot) {
    let totals = snap.totals();
    out.push_str("  \"telemetry\": {\n");

    out.push_str("    \"spans\": [\n");
    for (i, s) in totals.spans.iter().enumerate() {
        let comma = if i + 1 == totals.spans.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"cat\": \"{}\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \
             \"mean_ns\": {}, \"max_ns\": {}}}{comma}\n",
            s.cat,
            s.name,
            s.agg.count,
            s.agg.total_ns,
            s.agg.mean_ns(),
            s.agg.max_ns
        ));
    }
    out.push_str("    ],\n");

    out.push_str("    \"counters\": [\n");
    for (i, c) in totals.counters.iter().enumerate() {
        let comma = if i + 1 == totals.counters.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"value\": {}}}{comma}\n",
            c.name, c.value
        ));
    }
    out.push_str("    ],\n");

    out.push_str("    \"histograms\": [\n");
    for (i, h) in totals.hists.iter().enumerate() {
        let comma = if i + 1 == totals.hists.len() { "" } else { "," };
        let edges: Vec<String> = h.hist.edges.iter().map(u64::to_string).collect();
        let counts: Vec<String> = h.hist.counts.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"edges\": [{}], \"counts\": [{}]}}{comma}\n",
            h.name,
            edges.join(", "),
            counts.join(", ")
        ));
    }
    out.push_str("    ],\n");

    out.push_str("    \"per_experiment\": [\n");
    for (i, (name, _)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let track = snap
            .tracks
            .iter()
            .position(|t| t == name)
            .map(|p| p as u32 + 1)
            .unwrap_or(spansight::UNTRACKED);
        let mine = snap.for_track(track);
        out.push_str(&format!("      {{\"name\": \"{name}\", \"stages\": ["));
        for (j, s) in mine.spans.iter().enumerate() {
            let comma = if j + 1 == mine.spans.len() { "" } else { ", " };
            out.push_str(&format!(
                "{{\"cat\": \"{}\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}{comma}",
                s.cat, s.name, s.agg.count, s.agg.total_ns
            ));
        }
        out.push_str(&format!("]}}{comma}\n"));
    }
    out.push_str("    ]\n");
    out.push_str("  }\n");
}

/// Prints one experiment's telemetry table (its registered track's slice of
/// the global snapshot) to stderr, under a `[name telemetry]` header.
fn print_track_table(name: &str, track: u32) {
    spansight::flush();
    let table = spansight::table::render(&spansight::snapshot().for_track(track));
    if !table.is_empty() {
        eprintln!("[{name} telemetry]");
        eprint!("{table}");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = take_flag::<f64>(&mut args, "--scale").unwrap_or(1.0);
    if !(scale.is_finite() && scale > 0.0) {
        eprintln!("--scale must be a finite number above 0, not {scale}");
        usage();
    }
    let jobs =
        take_flag::<usize>(&mut args, "--jobs").unwrap_or_else(Pool::available_parallelism).max(1);
    let trace_out = take_flag::<String>(&mut args, "--trace-out");
    let bench_out = take_flag::<String>(&mut args, "--bench-out");
    if trace_out.is_some() {
        spansight::enable_tracing(TRACE_CAPACITY);
    }
    if args.is_empty() {
        usage();
    }
    if args[0] == "list" {
        for (name, what, _) in CATALOGUE {
            println!("{name:<18} {what}");
        }
        return;
    }

    let selected: Vec<&(&str, &str, Runner)> = if args.iter().any(|a| a == "all") {
        CATALOGUE.iter().collect()
    } else {
        args.iter()
            .map(|a| {
                CATALOGUE.iter().find(|(n, _, _)| n == a).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {a}");
                    usage()
                })
            })
            .collect()
    };

    // Register every selected experiment's telemetry track up front on the
    // main thread so track ids are deterministic (selection order), not a
    // function of worker scheduling.
    let tracks: Vec<u32> =
        selected.iter().map(|(name, _, _)| spansight::register_track(name)).collect();

    let ctx = Ctx::with_pool(scale, Pool::new(jobs));
    let started = std::time::Instant::now();
    let timings: Vec<(&str, f64)> = if jobs == 1 || selected.len() == 1 {
        // Inline: reports stream straight to stdout as they are produced.
        selected
            .iter()
            .zip(&tracks)
            .map(|((name, _, run), &track)| {
                let t = std::time::Instant::now();
                {
                    let _track = spansight::enter_track(track);
                    let _span = spansight::span("bench", name);
                    run(&ctx);
                }
                let secs = t.elapsed().as_secs_f64();
                eprintln!("[{name} done in {secs:.1}s]");
                print_track_table(name, track);
                (*name, secs)
            })
            .collect()
    } else {
        // Fan the experiments themselves out too. Each worker captures its
        // experiment's report; the main thread prints the captured reports
        // in selection order, so stdout is byte-identical to a sequential
        // run at any worker count.
        let inputs: Vec<_> = selected.iter().zip(tracks.iter().copied()).collect();
        let runs = ctx.pool.par_map(inputs, |_, ((name, _, run), track)| {
            let t = std::time::Instant::now();
            let _track = spansight::enter_track(track);
            let _span = spansight::span("bench", name);
            let ((), text) = report::capture(|| run(&ctx));
            let secs = t.elapsed().as_secs_f64();
            eprintln!("[{name} done in {secs:.1}s]");
            (*name, track, secs, text)
        });
        runs.into_iter()
            .map(|(name, track, secs, text)| {
                print!("{text}");
                print_track_table(name, track);
                (name, secs)
            })
            .collect()
    };
    let total_s = started.elapsed().as_secs_f64();
    eprintln!("[total {total_s:.1}s, scale {scale}, jobs {jobs}]");

    spansight::flush();
    let snap = spansight::snapshot();
    let totals_table = spansight::table::render(&snap.totals());
    if !totals_table.is_empty() {
        eprintln!("[suite telemetry]");
        eprint!("{totals_table}");
    }
    let mut written = true;
    if let Some(path) = bench_out {
        if let Err(e) = write_bench_json(&path, jobs, scale, total_s, &timings, &snap) {
            eprintln!("error: could not write {path}: {e}");
            written = false;
        }
    }
    if let Some(path) = trace_out {
        let (events, dropped) = spansight::take_events();
        let json = spansight::chrome::render(&events, &snap.tracks);
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => {
                eprintln!("[trace: {} events to {path}, {dropped} dropped]", events.len());
            }
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                written = false;
            }
        }
    }
    if !written {
        std::process::exit(1);
    }
}
