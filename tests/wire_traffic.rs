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

use adreno_sim::time::SimDuration;
use bench::trials::{trial_plan, victim};
use bench::TrialOptions;
use gpu_eaves::android_ui::SimConfig;
use gpu_eaves::attack::fleet::Session;
use gpu_eaves::attack::offline::ModelStore;
use gpu_eaves::attack::registry::Registry;
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::input_bot::corpus::CredentialKind;
use gpu_eaves::input_bot::timing::VolunteerModel;
use gpu_eaves::wire::{ExfilConfig, LinkPlan, SplitSessionOutcome, SplitSessionTask};

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
/// read, with both ends pumping at each instant something is due for them,
/// a measured retransmit timeout and fast retransmit on duplicate Acks,
/// and a FinAck that counts the Fin's payload as acked.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0x29F5_03E8_79E4_C3DC,
    0xD4CE_7C1B_16A3_AFEC,
    0xBD2D_0924_5397_4CFE,
    0x5CA9_04ED_D71E_CEF7,
    0x251C_1F8F_9364_9DD2,
    0xB57B_6779_577F_899C,
    0x11F3_E398_93B3_25D6,
    0xBA55_846F_98B9_D953,
    0x1CF1_A136_1149_0783,
    0xC8BF_0A4B_09BA_9803,
    0xB603_1A83_A2F2_AEAB,
    0x81F1_F102_C26E_9DA9,
    0x2087_BCBC_7D92_D45F,
    0x54BF_D968_0E97_AC0C,
    0x3168_A70B_0718_F5A6,
    0x3C41_F82F_7B6B_4596,
    0x8092_BB4D_1581_6916,
    0xB66E_D743_FA83_1E46,
    0x3099_6B49_1AC2_939E,
    0x1957_FE75_6B65_CF3D,
    0x6266_A40A_C141_F629,
    0x46B9_887A_5915_F83B,
    0x8AFC_CFEE_EC49_94EF,
    0xECF6_6317_98C4_55AF,
    0x22F3_F059_9D9A_BBE1,
    0x3E18_8392_C684_C2E1,
    0x0A45_F071_475B_E261,
    0x03FF_ED22_DA76_8C86,
    0xB046_3D63_E1E2_EA6E,
    0xCF02_715E_CC14_D5E6,
    0xEE8C_B3B6_057A_F456,
    0x4B08_4759_81AA_D6AA,
    0xEE57_D9FA_232F_D3FF,
    0xA23E_47A4_B29D_AAAD,
    0x4D18_821A_6D32_441F,
    0x9677_F82D_DE25_3770,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0xB2F0_CBB9_3939_204D;

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

/// A victim as the `fleet` experiment draws one: its credential, its typist
/// and its seed, from the sequential RNG in trial order.
type Victim = (String, VolunteerModel, u64);

fn victims() -> Vec<Victim> {
    trial_plan(DRAW_SEED, CredentialKind::Password, CREDENTIAL_LEN, VICTIMS)
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
fn run(
    service: &AttackService,
    (text, volunteer, seed): &Victim,
    plan: &LinkPlan,
) -> SplitSessionOutcome {
    let opts = TrialOptions { volunteer: *volunteer, ..TrialOptions::paper_default(0) };
    let (sim, end) = victim(&opts, text, *seed);
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
            .map(|(v, link)| {
                let (_, _, seed) = v;
                digest(&run(&service, v, &link_plan(*seed, link)))
            })
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
    let first = &victims()[0];
    let (_, _, seed) = first;
    // Outages of 700 ms, about one every 1.5 s: longer than the oldest
    // unacked frame's four timed retransmits take (about 180 ms from a
    // measured 12 ms timeout, 450 ms from the initial 30 ms), so the client
    // reconnects.
    let plan = LinkPlan::new(*seed)
        .with_outages(SimDuration::from_millis(1_500), SimDuration::from_millis(700))
        .with_horizon(HORIZON);
    let track = spansight::register_track("wire-traffic-outages");
    let outcome = {
        let _track = spansight::enter_track(track);
        run(&service, first, &plan)
    };
    let timeouts = spansight::snapshot().for_track(track).counter("wire.session.drain_timeouts");
    assert_eq!(timeouts, 0, "the session completes, so it is not salvaged");
    let split = outcome.outcome.as_ref().expect("link damage never fails a session");
    assert!(split.result.link.reconnects > 0, "test premise: a reconnect: {}", split.result.link);
    assert!(split.transport.outage_drops > 0, "test premise: outages: {:?}", split.transport);
    let digest = digest(&outcome);
    assert_eq!(digest, PINNED_OUTAGES, "digest {digest:#018X}");
}
