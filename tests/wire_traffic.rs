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
/// re-pin it silently. Pinned under wire version 3, one frame per changed
/// read.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0xB6A5_A59C_AFDA_4726,
    0x6302_F584_9C01_23AC,
    0x21F8_2E32_47C4_7318,
    0xED28_473C_0468_2ABA,
    0x2936_8552_93B5_E00D,
    0xBE5B_A3A1_EC90_3300,
    0x691A_629F_E562_B468,
    0x8073_260D_EEEE_08CE,
    0x44D9_6E76_4880_9922,
    0x5D6C_621E_78C7_ABFD,
    0x2200_8CD3_D481_0AD7,
    0xF485_D409_24A6_8379,
    0x938D_7CD7_31F1_C1FF,
    0x3970_7826_626B_84DE,
    0x8E5F_F70B_4DB7_709F,
    0x1CA0_EB37_E29C_50DD,
    0x1E22_B6FE_0E66_2428,
    0x93FB_7AE7_1D0F_C61B,
    0x82D0_6224_6C11_E010,
    0x8BCA_2237_55F9_1F0C,
    0xBD6F_34CE_5F16_1066,
    0x22F6_DF5B_EA09_F0C9,
    0x5648_F7EF_F613_92A7,
    0x5AC9_D8D8_6594_6724,
    0xB829_3653_D44A_9AA8,
    0x8B16_9EE5_47CD_75E0,
    0xCAC8_4BA7_288D_5004,
    0xBCDD_E168_DFBB_8576,
    0xA21D_F25E_2B4A_4D75,
    0xF80B_6D0F_6A66_1202,
    0x963C_3E1D_DF3E_5C53,
    0xA185_7044_7E9B_D821,
    0x621A_538E_30AA_B7B2,
    0x22EC_32EE_0466_0F27,
    0x0C58_7DA2_3C8F_93BF,
    0x39E7_1B75_4EA4_3286,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0xFA47_4378_5637_DC5F;

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
