//! `perfbench`: the end-to-end benchmark of the eavesdropping pipeline.
//!
//! ```text
//! perfbench --ref-rate <nominal> --workload login|pnc|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` a
//! separate traced run prints every per-layer metric. The last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). The exit code is non-zero when a correctness check fails.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod fleet;
mod report;
mod serial;
mod session;
mod setup;
mod trace;
mod yardstick;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use android_ui::TargetApp;

use report::{peak_rss_kib, percentile, smoothed_share, Host, Metric, Outcome};
use session::{digest_all, End, Record};
use setup::{set_up, Setup};
use trace::{trace_path, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 17: Chase login, one client, one session at a time.
    Login,
    /// Fig 29: the same loop on PNC's animated login.
    Pnc,
    /// The `fleet` experiment's mix, all sessions resident on a 2-worker ring.
    Fleet,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "login" => Some(Workload::Login),
            "pnc" => Some(Workload::Pnc),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Login => "login",
            Workload::Pnc => "pnc",
            Workload::Fleet => "fleet",
        }
    }

    /// Mixed into the seed so the workloads draw unrelated inputs.
    fn salt(self) -> u64 {
        match self {
            Workload::Login => 0x10_6170,
            Workload::Pnc => 0x0070_6E63,
            Workload::Fleet => 0xF1EE7,
        }
    }

    /// The victims' target app.
    fn app(self) -> TargetApp {
        match self {
            Workload::Pnc => TargetApp::Pnc,
            Workload::Login | Workload::Fleet => TargetApp::Chase,
        }
    }

    /// Session inputs drawn in set-up. Deterministic metrics (accuracy,
    /// failures, sim-time latency) cover exactly these sessions (the first
    /// pass, or the first fleet round), so they repeat exactly per seed.
    fn inputs(self) -> usize {
        match self {
            Workload::Login => 2000,
            Workload::Pnc => 1000,
            Workload::Fleet => 3000,
        }
    }

    /// Paper values printed beside the accuracy metrics.
    fn paper(self) -> (&'static str, &'static str) {
        match self {
            Workload::Login => ("paper Fig 17: 0.983", "paper Fig 17: 0.813"),
            Workload::Pnc => ("paper Fig 29: 0.302", "paper Fig 29: 0.302 overall"),
            Workload::Fleet => ("no paper figure: fleet goes beyond the paper", "no paper figure"),
        }
    }
}

/// Fewest timed sessions in a serial run: enough that at least ten lie
/// beyond the p99.
const MIN_SESSIONS: usize = 1000;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Spans kept for the written trace.
const SPAN_CAP: usize = 20_000;

/// Correctness checks of one run. Any failure makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    count: usize,
    /// Sessions whose outcome failed a check: the run's failed operations.
    sessions: usize,
}

impl Checks {
    /// Records a failure when `ok` is false.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.count += 1;
            if self.failures.len() < 16 {
                self.failures.push(message());
            }
        }
    }

    /// [`Checks::expect`] on one session's outcome; a failure also counts
    /// the session as a failed operation.
    pub fn expect_session(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.sessions += usize::from(!ok);
        self.expect(ok, message);
    }

    fn ok(&self) -> bool {
        self.count == 0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    nominal: f64,
    /// Internal: set up once, print the reading and exit (see
    /// [`set_up_repeatedly`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let nominal: f64 = get("--ref-rate")?.parse().map_err(|e| format!("--ref-rate: {e}"))?;
    if !(nominal.is_finite() && nominal > 0.0) {
        return Err(format!("--ref-rate must be a positive rate, not {nominal}"));
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: Duration::try_from_secs_f64(seconds).map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        nominal,
        setup_only: map.get("--setup-only").is_some_and(|v| v == "1"),
    })
}

/// Deterministic metrics over the first pass's records.
fn deterministic(workload: Workload, records: &[Record]) -> Vec<Metric> {
    let n = records.len();
    let true_keys: usize = records.iter().map(|r| r.true_keys).sum();
    let correct: usize = records.iter().map(|r| r.correct_keys).sum();
    let exact = records.iter().filter(|r| r.text_exact).count();
    let failed = records.iter().filter(|r| r.end == End::Failed).count();
    let latencies: Vec<f64> = records.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    let (paper_key, paper_text) = workload.paper();
    vec![
        Metric::plain("key_accuracy", "fraction", correct as f64 / true_keys as f64)
            .with_note(format!("{correct}/{true_keys} presses; {paper_key}")),
        Metric::plain("text_accuracy", "fraction", smoothed_share(exact, n))
            .with_note(format!("(exact+1)/(n+2), {exact}/{n} exact; {paper_text}")),
        Metric::plain("session_ok_frac", "fraction", (n - failed) as f64 / n as f64).with_note(
            format!("session_fail_frac {:.6}: {failed}/{n} ended in Err", failed as f64 / n as f64),
        ),
        Metric::plain("press_to_inference_sim_ms_p50", "sim_ms", percentile(&latencies, 0.5))
            .with_note(format!("{} matched presses", latencies.len())),
        Metric::plain("press_to_inference_sim_ms_p99", "sim_ms", percentile(&latencies, 0.99)),
    ]
}

/// The set-up's scaled and raw time, and a fingerprint of what it built
/// (victim model digest, registry bytes, every input), which repeats must
/// reproduce.
fn setup_reading(setup: &Setup, nominal: f64) -> (f64, f64, u64) {
    let rate = setup.yardstick.rate();
    let mut fp =
        report::fnv1a(report::FNV_BASIS, setup.models.victim.digest().to_string().as_bytes());
    fp = report::fnv1a(fp, &setup.models.registry.stats().total_bytes.to_le_bytes());
    for input in &setup.inputs {
        fp = report::fnv1a(fp, format!("{input:?}").as_bytes());
    }
    (setup.raw_s * rate / nominal, setup.raw_s, fp)
}

/// Set-up in a child process (`--setup-only 1`): prints one reading line.
fn setup_only(args: &Args, checks: &mut Checks) {
    let setup = set_up(args.workload, args.seed, args.workload.inputs());
    checks.expect(setup.yardstick.disturbed() == 0, || {
        "another thread ran during a set-up slice".into()
    });
    let (scaled, raw, fp) = setup_reading(&setup, args.nominal);
    println!("setup {scaled:?} {raw:?} {fp:016x}");
}

/// Sets up once in this process, whose models and inputs the run uses, and
/// `SETUP_REPS - 1` more times in fresh child processes, one after another.
/// Each set-up starts cold — with empty process-global render caches — as
/// the measured run's own does; `setup_s` is the median of their scaled
/// times.
fn set_up_repeatedly(args: &Args, checks: &mut Checks) -> (Setup, Metric) {
    let setup = set_up(args.workload, args.seed, args.workload.inputs());
    checks.expect(setup.yardstick.disturbed() == 0, || {
        "another thread ran during a set-up slice".into()
    });
    let (scaled, raw, fp) = setup_reading(&setup, args.nominal);
    let mut readings = vec![(scaled, raw, setup.yardstick.rate())];
    let exe = std::env::current_exe().expect("the running executable has a path");
    for _ in 1..SETUP_REPS {
        let out = std::process::Command::new(&exe)
            .args(["--ref-rate", &args.nominal.to_string(), "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string(), "--seconds", "0", "--trace", "0"])
            .args(["--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can re-run itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = stdout.lines().last().unwrap_or("").split(' ').collect();
        match (out.status.success(), fields.as_slice()) {
            (true, ["setup", scaled, raw, child_fp]) => {
                checks.expect(*child_fp == format!("{fp:016x}"), || {
                    "a repeated set-up built different models or inputs".into()
                });
                let scaled: f64 = scaled.parse().expect("the child prints a number");
                let raw: f64 = raw.parse().expect("the child prints a number");
                readings.push((scaled, raw, scaled / raw * args.nominal));
            }
            _ => checks.expect(false, || format!("set-up child failed: {} {stdout}", out.status)),
        }
    }
    let median = |f: fn(&(f64, f64, f64)) -> f64| {
        percentile(&readings.iter().map(f).collect::<Vec<f64>>(), 0.5)
    };
    let metric = Metric {
        name: "setup_s",
        unit: "s",
        value: median(|r| r.0),
        raw: Some((median(|r| r.1), median(|r| r.2))),
        note: format!(
            "median of {} cold set-ups, each scaled by its own yardstick",
            readings.len()
        ),
    };
    (setup, metric)
}

fn untraced(args: &Args, checks: &mut Checks) -> Outcome {
    let (setup, setup_metric) = set_up_repeatedly(args, checks);
    let w = args.workload;
    let (records, attempted, sessions, measured, keys, ys) = match w {
        Workload::Login | Workload::Pnc => {
            let m = serial::measure(w, &setup, args.seconds, MIN_SESSIONS, checks);
            (m.records, m.attempted, m.sessions.clone(), m.sessions, m.keys, m.yardstick)
        }
        Workload::Fleet => {
            let m = fleet::measure(&setup, args.seconds, checks);
            (m.first, m.attempted, m.sessions, m.rounds, m.keys, m.yardstick)
        }
    };
    checks.expect(ys.disturbed() == 0, || {
        format!("another thread ran during {} of {} yardstick slices", ys.disturbed(), ys.len())
    });
    checks.expect(records.len() == setup.inputs.len(), || {
        format!("{} outcomes for {} sessions", records.len(), setup.inputs.len())
    });
    let rate = ys.rate();
    let count = |e: End| records.iter().filter(|r| r.end == e).count();
    println!(
        "perfbench {} seed={} sessions={} timed={} outcomes: {} ok, {} salvaged, {} failed; digest {:016x}",
        w.name(),
        args.seed,
        records.len(),
        attempted,
        count(End::Ok),
        count(End::Salvaged),
        count(End::Failed),
        digest_all(&records),
    );
    println!(
        "  fidelity: accuracy is measured on a simulated Adreno/Android substrate that is otherwise unvalidated against phone hardware"
    );
    let nominal = args.nominal;
    let raw_s = measured.iter().map(|t| t.ns as f64).sum::<f64>() / 1e9;
    let scaled_s = measured.iter().map(|t| t.scaled_ns(nominal)).sum::<f64>() / 1e9;
    let raw_ms: Vec<f64> = sessions.iter().map(|t| t.ns as f64 / 1e6).collect();
    let ms: Vec<f64> = sessions.iter().map(|t| t.scaled_ns(nominal) / 1e6).collect();
    let pct = |q| (percentile(&ms, q), percentile(&raw_ms, q));
    let ((p50, raw_p50), (p99, raw_p99)) = (pct(0.5), pct(0.99));
    let keys = keys as f64;
    let mut metrics = vec![
        Metric::scaled("keys_per_s", "1/s", keys / scaled_s, keys / raw_s, rate)
            .with_note(format!("{keys} true keystrokes in {} sessions", ms.len())),
        Metric::scaled("session_ms_p50", "ms", p50, raw_p50, rate),
        Metric::scaled("session_ms_p99", "ms", p99, raw_p99, rate)
            .with_note(format!("{} sessions beyond", ms.len() / 100)),
        setup_metric,
        Metric::plain("peak_rss_mb", "MiB", peak_rss_kib() as f64 / 1024.0),
    ];
    metrics.extend(deterministic(w, &records));
    Outcome { correct: checks.ok(), attempted, failed: checks.sessions, metrics }
}

/// Every per-layer metric, in reporting order. A workload that does not
/// exercise a layer reports 0 for it (see README.md for which apply where).
const PER_LAYER: &[(&str, &str)] = &[
    ("input-bot.plan_us_per_session", "us"),
    ("android-ui.advance_ns_per_read", "ns"),
    ("android-ui.frames_per_session", "count"),
    ("adreno-sim.dirty_layers_per_session", "count"),
    ("adreno-sim.prims_recomputed_per_session", "count"),
    ("adreno-sim.reuse_ratio", "fraction"),
    ("kgsl.read_ns", "ns"),
    ("kgsl.open_us", "us"),
    ("kgsl.reads_per_session", "count"),
    ("kgsl.retries_per_session", "count"),
    ("kgsl.reads_lost_per_session", "count"),
    ("kgsl.fd_reopens_per_session", "count"),
    ("core.analysis_ns_per_sample", "ns"),
    ("core.analysis_us_per_key", "us"),
    ("core.extract_ns_per_sample", "ns"),
    ("core.deltas_per_session", "count"),
    ("core.keys_per_delta", "ratio"),
    ("core.noise_per_session", "count"),
    ("core.dups_per_session", "count"),
    ("core.splits_per_session", "count"),
    ("core.registry.train_ms_per_model", "ms"),
    ("core.registry.blob_bytes", "bytes"),
    ("core.fleet.step_ns_per_quantum", "ns"),
    ("core.fleet.quanta_per_session", "count"),
    ("core.fleet.stalls_per_session", "count"),
    ("wire.step_ns_per_quantum", "ns"),
    ("wire.quanta_per_session", "count"),
    ("wire.bytes_sent_per_key", "bytes"),
    ("wire.ack_ratio", "fraction"),
    ("wire.retransmits_per_session", "count"),
    ("wire.salvaged_frac", "fraction"),
    ("minipool.busy_share", "fraction"),
    ("minipool.quantum_wait_us_p50", "us"),
    ("minipool.quantum_wait_us_p99", "us"),
    ("fleet.rss_kb_per_session", "KiB"),
    ("host.ref_rate", "1/s"),
    ("host.raw_keys_per_s", "1/s"),
    ("host.raw_setup_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

fn traced(args: &Args, checks: &mut Checks) -> Outcome {
    let w = args.workload;
    let setup = set_up(w, args.seed, w.inputs());
    checks.expect(setup.yardstick.disturbed() == 0, || {
        "another thread ran during a set-up slice".into()
    });
    let setup_host = Host { rate: setup.yardstick.rate(), nominal: args.nominal };
    let mut tracer = Tracer::new(SPAN_CAP);
    let models = setup.models.train_ns.len() as f64;
    let mut measured = vec![
        Metric::time(
            "input-bot.plan_us_per_session",
            "us",
            setup.plan_ns.iter().sum::<u64>() as f64 / 1e3 / setup.plan_ns.len() as f64,
            &setup_host,
        ),
        Metric::time(
            "core.registry.train_ms_per_model",
            "ms",
            setup.models.train_ns.iter().sum::<u64>() as f64 / 1e6 / models,
            &setup_host,
        ),
        Metric::plain(
            "core.registry.blob_bytes",
            "bytes",
            setup.models.registry.stats().total_bytes as f64,
        ),
        Metric::plain("host.raw_setup_s", "s", setup.raw_s),
    ];
    let (attempted, ys) = match w {
        Workload::Login | Workload::Pnc => {
            let t = serial::trace(w, &setup, args.seconds, &mut tracer, checks);
            let host = Host { rate: t.yardstick.rate(), nominal: args.nominal };
            measured.extend(serial::layer_metrics(&t, &host));
            measured.push(Metric::plain(
                "host.raw_keys_per_s",
                "1/s",
                t.true_keys as f64 / (t.untraced_ns as f64 / 1e9),
            ));
            (t.sessions, t.yardstick)
        }
        Workload::Fleet => {
            let t = fleet::trace(&setup, args.seconds, &mut tracer, checks);
            let host = Host { rate: t.yardstick.rate(), nominal: args.nominal };
            measured.extend(fleet::layer_metrics(&t, &tracer, &host, setup.inputs.len()));
            let keys: u64 = t.local.iter().chain(&t.split).map(|d| d.record.true_keys as u64).sum();
            measured.push(Metric::plain(
                "host.raw_keys_per_s",
                "1/s",
                keys as f64 / (t.untraced_wall_ns as f64 / 1e9),
            ));
            (t.sessions, t.yardstick)
        }
    };
    checks.expect(ys.disturbed() == 0, || {
        format!("another thread ran during {} of {} yardstick slices", ys.disturbed(), ys.len())
    });
    measured.push(Metric::plain("host.ref_rate", "1/s", ys.rate()));
    let path = trace_path(w.name(), args.seed);
    match tracer.write(&path) {
        Ok(()) => println!(
            "perfbench {} traced {attempted} sessions; spans in {}",
            w.name(),
            path.display()
        ),
        Err(e) => checks.expect(false, || format!("writing {}: {e}", path.display())),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                m
            }
            None => {
                Metric::plain(name, unit, 0.0).with_note(format!("not exercised by {}", w.name()))
            }
        })
        .collect();
    assert!(measured.is_empty(), "unlisted per-layer metrics: {measured:?}");
    Outcome { correct: checks.ok(), attempted, failed: checks.sessions, metrics }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --ref-rate <nominal> --workload login|pnc|fleet --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    if args.setup_only {
        setup_only(&args, &mut checks);
        return if checks.ok() { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    let outcome =
        if args.trace { traced(&args, &mut checks) } else { untraced(&args, &mut checks) };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    outcome.print(args.nominal);
    if checks.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} correctness check(s) failed", checks.count);
        ExitCode::from(1)
    }
}
