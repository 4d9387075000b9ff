//! The traffic of fleet-mix split sessions, pinned per session.
//!
//! `tests/wire_bytes.rs` pins the bytes of one recorded session and the
//! tallies of one lossy one. This file pins what the retransmit clock, the
//! reconnect path and the link plan's draws make of many: 6-character
//! victims drawn as the `fleet` experiment draws them, each split over a
//! link of intensity 0, 0.4 or 0.8 on the 8 s horizon, plus one plan whose
//! outages force a reconnect. For each session one FNV digest covers the
//! folded `LinkDegradationReport`, the `TransportStats`, every streamed-back
//! press with its arrival instant, whether the handshake completed, and the
//! quanta the session took. A change to how either end pumps the link that
//! moves a single datagram's fate moves a digest.
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
/// re-pin it silently.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0x0849_83FD_740A_FD10,
    0x2FF1_84C0_CA43_3E84,
    0xD1A8_0431_AA32_E9F7,
    0xF16A_4E9A_02AF_8567,
    0x735E_6CD2_D364_79C5,
    0xE790_C979_1A48_AD61,
    0xBE6A_8D26_0423_E28F,
    0x791B_85CF_54CC_F833,
    0xB2FF_6F69_B5DA_8A0A,
    0x00CF_8D4C_FD06_7C10,
    0x392F_F7E5_112C_3654,
    0x2513_2C75_C4D6_17AA,
    0x47C2_0191_CEB9_00A0,
    0xEC11_3A63_6259_241E,
    0x0E3E_3213_3E1C_670B,
    0xAEFD_6B69_9804_EDBF,
    0xE479_D658_52B1_8ECE,
    0x504F_7915_A2E7_F17A,
    0x093D_676A_44DA_FCCE,
    0x9A2D_5F2A_252C_27D8,
    0xA864_C9A7_082A_890E,
    0x7895_608F_A519_05E7,
    0x8008_5805_3001_5E8F,
    0xDE6B_4461_041A_78FE,
    0xDADD_FEB9_185A_14CB,
    0x09B7_81C7_E094_E5A5,
    0x1F51_5FDA_9BA6_6502,
    0x2928_D5F3_BE06_FC4F,
    0x9A64_191D_03B8_F62D,
    0xB3B0_FBA1_C11A_A5DA,
    0xADE9_6317_59AC_5888,
    0x8800_2422_0CA2_B2D4,
    0x1EC7_4BB2_0C04_43AF,
    0xE4BC_AE30_25E4_94AF,
    0x87A2_6684_71C0_3039,
    0xACC0_810D_A621_4DB6,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0xAF46_9050_E229_CD3A;

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
    words.extend([u64::from(split.completed), outcome.quanta]);
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
