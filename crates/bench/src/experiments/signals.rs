//! Signal-level demonstrations: Figs 3, 5, 6, 13, 14 and 16.

use adreno_sim::counters::TrackedCounter;
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::keyboard::Key;
use android_ui::sim::{SimConfig, UiSimulation};
use android_ui::{TimedEvent, UiEvent};
use gpu_sc_attack::sampler::{Sampler, SamplerConfig};
use gpu_sc_attack::trace::extract_deltas;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;

fn quiet_sim(seed: u64) -> UiSimulation {
    UiSimulation::new(SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(seed) })
}

fn sample(sim: &mut UiSimulation, until_ms: u64) -> Vec<gpu_sc_attack::Delta> {
    let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).expect("stock policy");
    let trace = s.sample_until(sim, SimInstant::from_millis(until_ms)).expect("stock policy");
    s.close(sim.device());
    extract_deltas(&trace)
}

/// Fig 3: one key press produces exactly three counter changes — popup
/// appear, text echo, popup hide.
pub fn fig3(_ctx: &Ctx) {
    report::section("Fig 3", "a key press results in 3 GPU PC value changes");
    let mut sim = quiet_sim(1);
    sim.advance_to(SimInstant::from_millis(440));
    sim.tap_key(SimInstant::from_millis(700), Key::Char('g'), SimDuration::from_millis(110));
    let deltas: Vec<_> = sample(&mut sim, 1_480)
        .into_iter()
        .filter(|d| d.at > SimInstant::from_millis(450))
        .collect();
    let labels = ["popup appears (press down)", "text echo (key release)", "popup disappears"];
    let mut shown = 0;
    for d in &deltas {
        // Skip the 1000ms cursor blink for the printout clarity.
        let on_blink = d.at.as_nanos() % 500_000_000 < 30_000_000;
        if on_blink && shown > 0 {
            report::kv(&format!("  t={} (cursor blink)", d.at), d.magnitude());
            continue;
        }
        if shown < 3 {
            report::kv(&format!("  t={} {}", d.at, labels[shown]), d.magnitude());
            shown += 1;
        }
    }
    report::kv("changes attributable to the press", shown);
}

/// Fig 5: per-key uniqueness plus the duplication / split / noise factors,
/// shown on `PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ`.
pub fn fig5(_ctx: &Ctx) {
    report::section("Fig 5", "PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ variations for 'w','w','n'");
    // Seed chosen so the second 'w' rolls the duplicated animation frame.
    let mut sim = quiet_sim(3);
    sim.advance_to(SimInstant::from_millis(420));
    let mut t = SimInstant::from_millis(700);
    for c in ['w', 'w', 'n'] {
        sim.tap_key(t, Key::Char(c), SimDuration::from_millis(100));
        t += SimDuration::from_millis(700);
    }
    for d in sample(&mut sim, 2_900) {
        if d.at <= SimInstant::from_millis(450) {
            continue;
        }
        let v = d.values[TrackedCounter::LrzVisiblePrimAfterLrz];
        if v > 0 {
            report::bar(&format!("t={}", d.at), v as f64, 400.0);
        }
    }
    outln!("(identical bars ~16ms apart = duplication; large bars = app echo/blink)");
}

/// Fig 6: the per-key scatter in counter space — one LRZ and one RAS
/// counter, every lowercase key.
pub fn fig6(ctx: &Ctx) {
    report::section("Fig 6", "per-key popup deltas: LRZ_FULL_8X8 vs RAS_SUPERTILE_ACTIVE_CYCLES");
    let cfg = SimConfig::paper_default(0);
    let model = ctx.registry.get_or_train(cfg.device, cfg.keyboard, cfg.app).model_arc();
    outln!("{:<5} {:>14} {:>14}", "key", "LRZ full 8x8", "RAS cycles");
    for c in model.centroids().iter().filter(|c| c.ch.is_ascii_lowercase()) {
        outln!(
            "{:<5} {:>14} {:>14}",
            format!("{:?}", c.ch),
            c.values[TrackedCounter::LrzFull8x8Tiles],
            c.values[TrackedCounter::RasSupertileActiveCycles]
        );
    }
    let mut uniq: Vec<(u64, u64)> = model
        .centroids()
        .iter()
        .map(|c| {
            (
                c.values[TrackedCounter::LrzFull8x8Tiles],
                c.values[TrackedCounter::RasSupertileActiveCycles],
            )
        })
        .collect();
    uniq.sort_unstable();
    uniq.dedup();
    report::kv("distinct (LRZ, RAS) pairs", format!("{}/{}", uniq.len(), model.centroids().len()));
}

/// Fig 13: app switching produces fierce counter bursts with <50 ms
/// spacing.
pub fn fig13(_ctx: &Ctx) {
    report::section("Fig 13", "PC value changes across an app switch");
    let mut sim = quiet_sim(5);
    sim.advance_to(SimInstant::from_millis(420));
    sim.tap_key(SimInstant::from_millis(600), Key::Char('a'), SimDuration::from_millis(90));
    sim.queue(TimedEvent::new(SimInstant::from_millis(1_200), UiEvent::SwitchAway));
    sim.queue(TimedEvent::new(SimInstant::from_millis(1_700), UiEvent::OtherAppActivity));
    sim.queue(TimedEvent::new(SimInstant::from_millis(2_300), UiEvent::SwitchBack));
    sim.tap_key(SimInstant::from_millis(3_000), Key::Char('b'), SimDuration::from_millis(90));
    let deltas = sample(&mut sim, 3_600);
    let mut burst_gaps = Vec::new();
    let mut prev_big: Option<SimInstant> = None;
    for d in &deltas {
        if d.at <= SimInstant::from_millis(450) {
            continue;
        }
        let big = d.magnitude() > 800_000;
        if big {
            if let Some(p) = prev_big {
                burst_gaps.push((d.at - p).as_millis());
            }
            prev_big = Some(d.at);
        } else {
            prev_big = None;
        }
        report::bar(
            &format!("t={}{}", d.at, if big { " *" } else { "" }),
            d.magnitude() as f64,
            3_000_000.0,
        );
    }
    let within_50 = burst_gaps.iter().filter(|g| **g < 50).count();
    report::kv("burst inter-change gaps <50ms", format!("{within_50}/{}", burst_gaps.len()));
}

/// Fig 14: visible prims move ±2 per character; cursor blinks sit on the
/// 0.5 s grid.
pub fn fig14(_ctx: &Ctx) {
    report::section("Fig 14", "echo deltas: 3 letters typed, then 2 deleted");
    let mut sim = quiet_sim(7);
    sim.advance_to(SimInstant::from_millis(420));
    let mut t = SimInstant::from_millis(650);
    for c in ['a', 'b', 'c'] {
        sim.tap_key(t, Key::Char(c), SimDuration::from_millis(90));
        t += SimDuration::from_millis(650);
    }
    for _ in 0..2 {
        sim.tap_key(t, Key::Backspace, SimDuration::from_millis(90));
        t += SimDuration::from_millis(650);
    }
    let app_pixels = {
        let cfg = SimConfig::paper_default(0);
        let screen = android_ui::LoginScreen::new(cfg.app, &cfg.device);
        adreno_sim::pipeline::render(&screen.draw(0, true, 0.0), &cfg.device.gpu().params()).totals
            [TrackedCounter::LrzVisiblePixelAfterLrz]
    };
    let mut prev: Option<u64> = None;
    for d in sample(&mut sim, 4_400) {
        if d.at <= SimInstant::from_millis(450) {
            continue;
        }
        let px = d.values[TrackedCounter::LrzVisiblePixelAfterLrz];
        // Echo-like: app-window-sized pixel footprint.
        if (px as f64) > app_pixels as f64 * 0.7 {
            let v = d.values[TrackedCounter::LrzVisiblePrimAfterLrz];
            let dv = prev.map(|p| v as i64 - p as i64);
            let on_blink = d.at.as_nanos() % 500_000_000 < 30_000_000;
            let tag = match (dv, on_blink) {
                (None, _) => "baseline".to_owned(),
                (Some(x), true) => format!("{x:+} cursor blink"),
                (Some(x), false) if x > 0 => format!("{x:+} input"),
                (Some(x), false) if x < 0 => format!("{x:+} deletion"),
                (Some(x), _) => format!("{x:+}"),
            };
            outln!("t={:<12} visible_prims={v:<6} {tag}", d.at.to_string());
            prev = Some(v);
        }
    }
}

/// Fig 16: durations and intervals of the five volunteers.
pub fn fig16(_ctx: &Ctx) {
    report::section("Fig 16", "key-press durations and intervals per volunteer");
    let mut rng = StdRng::seed_from_u64(16);
    outln!("{:<12} {:>18} {:>18}", "volunteer", "duration mean±std", "interval mean±std");
    for v in VOLUNTEERS {
        let n = 250;
        let durs: Vec<f64> = (0..n).map(|_| v.sample_duration(&mut rng).as_secs_f64()).collect();
        let ints: Vec<f64> = (0..n).map(|_| v.sample_interval(&mut rng).as_secs_f64()).collect();
        let stat = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let s = (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
            (m, s)
        };
        let (dm, ds) = stat(&durs);
        let (im, is) = stat(&ints);
        outln!(
            "{:<12} {:>10.3}±{:.3}s {:>10.3}±{:.3}s",
            format!("Volunteer {}", v.id),
            dm,
            ds,
            im,
            is
        );
    }
}
