//! Overhead experiments: Fig 25 (inference latency) and Fig 26 (battery).

use std::time::Instant;

use android_ui::screen::ALL_PHONES;
use android_ui::PhoneModel;
use gpu_sc_attack::online::{InferEvent, InferStage};
use gpu_sc_attack::trace::Delta;

use crate::experiments::Ctx;
use crate::power::extra_battery_percent;
use crate::report;
use crate::trials::TrialOptions;
use crate::{out, outln};

/// Fig 25: wall-clock time to infer one key press. The paper reports >95 %
/// of presses inferred within 0.1 ms; our nearest-centroid step is far
/// below that even with the full Algorithm 1 state machine around it.
pub fn fig25(ctx: &Ctx) {
    report::section("Fig 25", "computing time needed for eavesdropping");
    let opts = TrialOptions::paper_default(0);
    let model =
        ctx.registry.get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app).model_arc();

    // One delta per centroid, replayed far apart in simulated time so every
    // push runs the full direct-classification path.
    let deltas: Vec<Delta> = model
        .centroids()
        .iter()
        .enumerate()
        .map(|(i, c)| Delta {
            at: adreno_sim::SimInstant::from_millis(200 + 300 * i as u64),
            values: c.values,
        })
        .collect();

    let presses = ctx.trials(3_300);
    let mut times_us: Vec<f64> = Vec::with_capacity(presses);
    let mut stage = InferStage::greedy(&model);
    let mut inferred = 0usize;
    let mut i = 0usize;
    let mut virtual_ms = 0u64;
    while times_us.len() < presses {
        let mut d = deltas[i % deltas.len()];
        // Keep timestamps increasing across replays.
        d.at = adreno_sim::SimInstant::from_millis(virtual_ms + 200);
        virtual_ms += 300;
        let start = Instant::now();
        inferred += stage.push(d).filter(|e| matches!(e, InferEvent::Key(_))).count();
        times_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        i += 1;
    }
    times_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = |q: f64| times_us[((times_us.len() - 1) as f64 * q) as usize];
    let under_100us = times_us.iter().filter(|t| **t < 100.0).count();
    // Doubling edges from 0.125 us to 16 us, with a bucket below the first
    // and one above the last, so the sub-microsecond presses spread.
    let edges: Vec<f64> = (0..8).map(|k| 0.125 * f64::from(1u32 << k)).collect();
    let mut buckets: Vec<(String, usize)> = std::iter::once(format!("< {} us", edges[0]))
        .chain(edges.windows(2).map(|w| format!("{}-{} us", w[0], w[1])))
        .chain(std::iter::once(format!(">= {} us", edges[edges.len() - 1])))
        .map(|label| (label, 0))
        .collect();
    for t in &times_us {
        buckets[edges.partition_point(|e| e <= t)].1 += 1;
    }
    report::histogram(&buckets);
    report::kv("median / p95 / p99", format!("{:.2} / {:.2} / {:.2} us", p(0.5), p(0.95), p(0.99)));
    report::kv(
        "presses inferred within 0.1ms",
        format!("{:.1}% (paper: >95%)", under_100us as f64 / times_us.len() as f64 * 100.0),
    );
    report::kv("inferred keys (sanity)", inferred);
}

/// Fig 26: extra battery consumption over two hours of continuous
/// eavesdropping, per device.
pub fn fig26(_ctx: &Ctx) {
    report::section("Fig 26", "power consumption for inferring user inputs");
    let devices = [
        PhoneModel::LgV30Plus,
        PhoneModel::GooglePixel2,
        PhoneModel::OnePlus7Pro,
        PhoneModel::OnePlus8Pro,
    ];
    out!("{:<18}", "minutes");
    for m in [30, 60, 90, 120] {
        out!("{m:>9}");
    }
    outln!();
    for phone in devices {
        out!("{:<18}", phone.name());
        for minutes in [30.0, 60.0, 90.0, 120.0] {
            out!("{:>8.2}%", extra_battery_percent(phone, 8, minutes));
        }
        outln!();
    }
    let worst = ALL_PHONES
        .into_iter()
        .map(|p| extra_battery_percent(p, 8, 120.0))
        .fold(f64::NEG_INFINITY, f64::max);
    report::kv("worst device after 2h", format!("{worst:.2}% (paper: ≤4%)"));
}
