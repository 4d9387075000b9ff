//! Set-up: the attacker's offline phase (§3.2, §7.6) plus building every
//! session input from the workload seed.

use std::hint::black_box;
use std::time::Instant;

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::keyboard::ALL_KEYBOARDS;
use android_ui::screen::ALL_PHONES;
use android_ui::{DeviceConfig, TargetApp, TimedEvent};
use gpu_sc_attack::registry::{ModelHandle, Registry};
use input_bot::corpus::{generate, generate_ranged, CredentialKind};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::yardstick::{thread_cpu_ns, Yardstick};
use crate::Workload;

/// Device-fault intensities local fleet sessions cycle through.
const FAULT_MIX: [f64; 4] = [0.0, 0.3, 0.6, 0.9];

/// Link intensities split fleet sessions cycle through.
const LINK_MIX: [f64; 3] = [0.0, 0.4, 0.8];

/// Every third fleet session runs split over its own lossy link.
const SPLIT_EVERY: usize = 3;

/// How a session reaches the classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Channel {
    /// In process, with a device fault plan of this intensity (0 = none).
    Local { faults: f64 },
    /// Split over a wire link with a loss plan of this intensity (0 = clean).
    Split { link: f64 },
}

/// One victim session, fully determined by the workload seed.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// Seed of the victim simulation (and of its fault or link plan).
    pub sim_seed: u64,
    /// The typing plan, starting 900 ms into the session.
    pub events: Vec<TimedEvent>,
    /// When eavesdropping stops: 800 ms after the last release.
    pub end: SimInstant,
    pub channel: Channel,
}

/// The trained models and what training them cost.
pub struct Models {
    pub registry: Registry,
    /// Handle of the victims' configuration (OnePlus 8 Pro / GBoard / Chase).
    pub victim: ModelHandle,
    /// Wall time of each `get_or_train` call, ns, in training order.
    pub train_ns: Vec<u64>,
}

/// A completed set-up.
pub struct Setup {
    pub models: Models,
    pub inputs: Vec<SessionInput>,
    /// Wall time of each input's `generate` + `type_text`, ns.
    pub plan_ns: Vec<u64>,
    /// Set-up CPU time minus the yardstick slices run inside it, s.
    pub raw_s: f64,
    /// The phase's yardstick.
    pub yardstick: Yardstick,
}

/// Trains one Chase model per phone × keyboard (6 × 6) into a fresh
/// registry, ticking the yardstick between trainings.
fn offline_phase(ys: &mut Yardstick) -> Models {
    let registry = Registry::default();
    let mut train_ns = Vec::with_capacity(ALL_PHONES.len() * ALL_KEYBOARDS.len());
    for phone in ALL_PHONES {
        for keyboard in ALL_KEYBOARDS {
            ys.tick();
            let start = Instant::now();
            let handle =
                registry.get_or_train(DeviceConfig::for_phone(phone), keyboard, TargetApp::Chase);
            black_box(&handle);
            train_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
    let victim = registry.get_or_train(
        DeviceConfig::oneplus8pro(),
        android_ui::KeyboardKind::Gboard,
        TargetApp::Chase,
    );
    Models { registry, victim, train_ns }
}

/// Draws `count` session inputs for `workload` from `seed`. Every draw comes
/// from one sequential RNG in index order, so input `i` is the same for a
/// given seed however many inputs are drawn after it.
fn build_inputs(
    workload: Workload,
    seed: u64,
    count: usize,
    ys: &mut Yardstick,
) -> (Vec<SessionInput>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ workload.salt());
    let mut inputs = Vec::with_capacity(count);
    let mut plan_ns = Vec::with_capacity(count);
    let mut locals = 0usize;
    for i in 0..count {
        if i % 256 == 0 {
            ys.tick();
        }
        let start = Instant::now();
        let text = match workload {
            Workload::Fleet => generate(&mut rng, CredentialKind::Password, 6),
            Workload::Login | Workload::Pnc => {
                generate_ranged(&mut rng, CredentialKind::Password, 8, 16)
            }
        };
        let sim_seed: u64 = rng.gen();
        let mut typist = Typist::new(VOLUNTEERS[i % VOLUNTEERS.len()]);
        let mut trial_rng = StdRng::seed_from_u64(sim_seed ^ 0x7157);
        let plan = typist.type_text(&text, SimInstant::from_millis(900), &mut trial_rng);
        plan_ns.push(start.elapsed().as_nanos() as u64);
        let channel = if workload == Workload::Fleet && i % SPLIT_EVERY == SPLIT_EVERY - 1 {
            Channel::Split { link: LINK_MIX[(i / SPLIT_EVERY) % LINK_MIX.len()] }
        } else if workload == Workload::Fleet {
            locals += 1;
            Channel::Local { faults: FAULT_MIX[(locals - 1) % FAULT_MIX.len()] }
        } else {
            Channel::Local { faults: 0.0 }
        };
        inputs.push(SessionInput {
            sim_seed,
            events: plan.events,
            end: plan.end + SimDuration::from_millis(800),
            channel,
        });
    }
    (inputs, plan_ns)
}

/// Runs one whole set-up: the offline phase, then `count` session inputs.
/// Set-up is single-threaded and timed in thread CPU time, which leaves out
/// the host's preemptions (other tenants' work) that no yardstick can
/// normalise.
pub fn set_up(workload: Workload, seed: u64, count: usize) -> Setup {
    let mut ys = Yardstick::new(1);
    let start = thread_cpu_ns();
    let models = offline_phase(&mut ys);
    let (inputs, plan_ns) = build_inputs(workload, seed, count, &mut ys);
    let raw_s = (thread_cpu_ns() - start - ys.slice_cpu_ns()) as f64 / 1e9;
    ys.close();
    Setup { models, inputs, plan_ns, raw_s, yardstick: ys }
}
