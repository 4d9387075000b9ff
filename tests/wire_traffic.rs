//! The traffic of fleet-mix split sessions, pinned per session.
//!
//! `tests/wire_bytes.rs` pins the bytes of one recorded session and the
//! tallies of one lossy one. This file pins what the retransmit clock, the
//! reconnect path and the link plan's draws make of many: 6-character
//! victims drawn as the `fleet` experiment draws them, each split over a
//! link of intensity 0, 0.4 or 0.8 on the 8 s horizon, plus one plan whose
//! outages force a reconnect. For each session one FNV digest covers the
//! folded `LinkDegradationReport`, the `TransportStats`, every streamed-back
//! press with its arrival instant, whether the handshake completed, how
//! long its drain took in sim time, and the quanta the session took. A
//! change to how either end pumps the link that moves a single datagram's
//! fate moves a digest.
//!
//! Every session must also complete its handshake, so the run counts no
//! `wire.session.drain_timeouts` on its spansight track.

mod common;

use std::sync::OnceLock;

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::fleet::Session;
use gpu_eaves::attack::offline::ModelStore;
use gpu_eaves::attack::registry::Registry;
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::input_bot::corpus::{generate, CredentialKind};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::wire::{ExfilConfig, LinkPlan, SplitSessionOutcome, SplitSessionTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{fnv1a, FNV_BASIS};

/// Characters per credential, as in the `fleet` workload.
const CREDENTIAL_LEN: usize = 6;

/// Horizon of every link plan, as in the `fleet` workload.
const HORIZON: SimDuration = SimDuration::from_secs(8);

/// Link intensities each victim is split over.
const LINK_MIX: [f64; 3] = [0.0, 0.4, 0.8];

/// Victims drawn from the sequential RNG.
const VICTIMS: usize = 12;

/// Seed of the sequential RNG the victims are drawn from.
const DRAW_SEED: u64 = 29;

/// Per-session digests, victim-major, intensity-minor in [`LINK_MIX`]
/// order. A change here means a datagram's fate changed: explain it, do not
/// re-pin it silently. Pinned under wire version 3, one frame per changed
/// read, with both ends pumping at each instant something is due for them.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0x237A_0E89_9CD9_8BBA,
    0x709D_0833_BF64_54B5,
    0x0B52_BF6A_7F70_8D79,
    0xD2EC_1936_3FE1_FE85,
    0x9390_61A9_EB5F_DE4B,
    0xAFFB_6A5F_4E9F_1784,
    0x745C_4813_D223_0188,
    0x3134_FB36_2DBD_C85A,
    0x537B_9EAF_942F_BB23,
    0x53A7_9CD1_61EA_2B45,
    0x3C66_8CB4_DF90_51F1,
    0xE851_F783_2D3A_DEE7,
    0xE4AF_0F27_9917_8F3D,
    0xA7F0_3663_FF1C_F1FC,
    0x6D17_140D_7D31_9CF6,
    0xCB08_0480_51A7_9428,
    0x0A5E_C24F_A700_9169,
    0x2959_B60D_3704_EE53,
    0x2BDD_5DE8_FC36_E6E4,
    0x8868_F783_1142_20B4,
    0x5AFF_ACF0_2E43_1196,
    0x6433_4BAF_BBCD_F305,
    0x680A_55F1_1C00_6125,
    0x6C43_6ECC_D2D7_72E6,
    0x0E51_69A7_6AB4_BF27,
    0x2B87_D16D_B502_731A,
    0xC9E3_D750_07C9_7E2E,
    0x494A_7432_0839_F170,
    0x8DE3_CB22_74C7_CE04,
    0x3A4C_B165_15E5_CDC9,
    0x9F45_E228_81ED_CC15,
    0x5588_F32D_2127_902F,
    0x3A96_E2A5_8C5D_1CC0,
    0x5EFC_9694_E793_6C13,
    0xB28B_0F7E_C03B_39C1,
    0xF4BA_DD75_D67A_DD6A,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0x0AE0_B80C_0A38_0446;

/// One service for every session, its model trained once.
fn service() -> AttackService {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    let store = STORE.get_or_init(|| {
        let cfg = SimConfig::paper_default(0);
        let mut store = ModelStore::new();
        store.add_handle(Registry::default().get_or_train(cfg.device, cfg.keyboard, cfg.app));
        store
    });
    AttackService::new(store.clone(), ServiceConfig::default())
}

/// A victim as the `fleet` experiment draws one: its credential and seed
/// from the sequential RNG, its typist by index.
struct Victim {
    seed: u64,
    text: String,
    volunteer: usize,
}

fn victims() -> Vec<Victim> {
    let mut rng = StdRng::seed_from_u64(DRAW_SEED);
    (0..VICTIMS)
        .map(|i| {
            let text = generate(&mut rng, CredentialKind::Password, CREDENTIAL_LEN);
            Victim { seed: rng.gen(), text, volunteer: i % VOLUNTEERS.len() }
        })
        .collect()
}

impl Victim {
    /// The victim's simulation with its typing queued, and when sampling
    /// stops.
    fn sim(&self) -> (UiSimulation, SimInstant) {
        let mut sim =
            UiSimulation::new(SimConfig { seed: self.seed, ..SimConfig::paper_default(0) });
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7157);
        let plan = Typist::new(VOLUNTEERS[self.volunteer]).type_text(
            &self.text,
            SimInstant::from_millis(900),
            &mut rng,
        );
        sim.queue_all(plan.events);
        (sim, plan.end + SimDuration::from_millis(800))
    }
}

/// The link a `fleet` split session of intensity `link` runs over.
fn link_plan(seed: u64, link: f64) -> LinkPlan {
    if link > 0.0 {
        LinkPlan::with_intensity(seed, link, HORIZON)
    } else {
        LinkPlan::new(seed)
    }
}

/// Steps one split session to its end, one quantum per step, as the fleet
/// scheduler does.
fn run(service: &AttackService, victim: &Victim, plan: &LinkPlan) -> SplitSessionOutcome {
    let (sim, end) = victim.sim();
    let mut task = SplitSessionTask::new(0, service, sim, end, plan, ExfilConfig::default());
    loop {
        if let Some(outcome) = task.step() {
            return outcome;
        }
    }
}

/// The session's traffic digest; panics unless the session completed.
fn digest(outcome: &SplitSessionOutcome) -> u64 {
    let split = outcome.outcome.as_ref().expect("link damage never fails a session");
    assert!(split.completed, "the handshake must complete: {}", split.result.link);
    let link = split.result.link;
    let t = split.transport;
    let mut words = vec![
        link.frames_sent,
        link.retransmits,
        link.frames_dropped,
        link.frames_corrupt,
        link.duplicates_discarded,
        link.reorders_observed,
        link.reconnects,
        link.bytes_sent,
        link.bytes_acked,
        t.sent,
        t.delivered,
        t.dropped,
        t.outage_drops,
        t.duplicated,
        t.truncated,
        t.reordered,
        split.key_arrivals.len() as u64,
    ];
    for (key, arrived) in &split.key_arrivals {
        words.extend([
            key.at.as_nanos(),
            key.decided_at.as_nanos(),
            u64::from(u32::from(key.ch)),
            u64::from(key.via_split),
            arrived.as_nanos(),
        ]);
    }
    words.extend([u64::from(split.completed), split.drain.as_nanos(), outcome.quanta]);
    words.iter().fold(FNV_BASIS, |h, w| fnv1a(h, &w.to_le_bytes()))
}

#[test]
fn fleet_mix_split_sessions_replay_their_pinned_traffic() {
    let service = service();
    let victims = victims();
    let track = spansight::register_track("wire-traffic-fleet-mix");
    let digests: Vec<u64> = {
        let _track = spansight::enter_track(track);
        victims
            .iter()
            .flat_map(|v| LINK_MIX.map(|link| (v, link)))
            .map(|(v, link)| digest(&run(&service, v, &link_plan(v.seed, link))))
            .collect()
    };
    let timeouts = spansight::snapshot().for_track(track).counter("wire.session.drain_timeouts");
    assert_eq!(timeouts, 0, "every session completes, so none is salvaged");
    let listing: String = digests.iter().map(|d| format!("    0x{d:016X},\n")).collect();
    assert_eq!(digests, PINNED, "per-session traffic digests:\n{listing}");
}

#[test]
fn an_outage_heavy_link_reconnects_and_replays_its_pinned_traffic() {
    let service = service();
    let victim = &victims()[0];
    // Outages of 700 ms, about one every 1.5 s: longer than the 450 ms the
    // oldest unacked frame's four retransmits take, so the client
    // reconnects.
    let plan = LinkPlan::new(victim.seed)
        .with_outages(SimDuration::from_millis(1_500), SimDuration::from_millis(700))
        .with_horizon(HORIZON);
    let track = spansight::register_track("wire-traffic-outages");
    let outcome = {
        let _track = spansight::enter_track(track);
        run(&service, victim, &plan)
    };
    let timeouts = spansight::snapshot().for_track(track).counter("wire.session.drain_timeouts");
    assert_eq!(timeouts, 0, "the session completes, so it is not salvaged");
    let split = outcome.outcome.as_ref().expect("link damage never fails a session");
    assert!(split.result.link.reconnects > 0, "test premise: a reconnect: {}", split.result.link);
    assert!(split.transport.outage_drops > 0, "test premise: outages: {:?}", split.transport);
    let digest = digest(&outcome);
    assert_eq!(digest, PINNED_OUTAGES, "digest {digest:#018X}");
}
