//! The traffic of fleet-mix split sessions, pinned per session.
//!
//! `tests/wire_bytes.rs` pins the bytes of one recorded session and the
//! tallies of one lossy one. This file pins what the retransmit clock and
//! the link plan's draws make of many: 6-character victims drawn as the
//! `fleet` experiment draws them, each split over a link of intensity 0,
//! 0.4 or 0.8 on the 8 s horizon, plus one plan whose outages swallow
//! every retransmit of a frame for hundreds of milliseconds. For each
//! session one FNV digest covers the folded `LinkDegradationReport`, the
//! `TransportStats`, every streamed-back press with its arrival instant,
//! whether the handshake completed, how long its drain took in sim time,
//! and the quanta the session took. A change to how either end pumps the
//! link that moves a single datagram's fate moves a digest.
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
/// re-pin it silently. Pinned under wire version 5, one frame per changed
/// read, with both ends pumping at each instant something is due for them,
/// a measured retransmit timeout and fast retransmit on duplicate Acks, a
/// FinAck that counts the Fin's payload as acked, and a Hello that carries
/// only the model digest and rides the data stream as frame 0.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0xEAC8_3E9B_F6AB_F23E,
    0xDC9B_F679_FCCF_5C02,
    0x711A_C586_7F83_B1A6,
    0x7EBA_9180_C439_8243,
    0x8571_D147_E974_CC8C,
    0x6B41_4E4E_60FB_0961,
    0x996D_DEF3_F3F8_C890,
    0xB8EF_F413_28BA_7224,
    0x8B93_63A5_EFB4_D2C6,
    0xBCB7_092C_B91C_D18C,
    0x6BDD_4CB1_2891_BB36,
    0x5A69_CED1_1CAF_2781,
    0x787C_B461_BDA0_7B6E,
    0xF839_7300_7951_AE32,
    0x1CDB_BAF2_5541_8C95,
    0x70A4_71F5_37DC_C419,
    0xFD9E_4E0E_33A0_CDBC,
    0x3BD6_DB68_EDF0_9A2C,
    0x379D_336F_1267_2345,
    0x72F5_2DAE_9160_1BB6,
    0xEED9_B306_6AA5_81AE,
    0x4548_D8A6_73A6_9EBE,
    0x3EA0_3773_6CB2_6D57,
    0x7F19_0877_BBF0_2AE9,
    0x21CE_7844_7BAD_36C9,
    0x0602_B4D7_BC30_4ADA,
    0xDD57_673F_2957_1612,
    0x05D6_F58D_5524_DCA0,
    0x1E46_2941_D91E_A266,
    0xB591_1341_A55E_543E,
    0x3277_3B66_35BC_0315,
    0x84CE_C879_4AD7_5049,
    0x7211_9878_9196_30FE,
    0x528D_47DB_3597_5906,
    0x6E34_73FF_F113_BB85,
    0x938A_4CAE_DDAD_02C5,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0x3690_89EA_4564_52A8;

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
fn an_outage_heavy_link_replays_its_pinned_traffic() {
    let service = service();
    let first = &victims()[0];
    let (_, _, seed) = first;
    // Outages of 700 ms, about one every 1.5 s: a frame sent into one is
    // retransmitted several times, its backoff doubling from a measured
    // 12 ms timeout (or the initial 30 ms), before a copy gets through.
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
    assert!(split.transport.outage_drops > 0, "test premise: outages: {:?}", split.transport);
    let digest = digest(&outcome);
    assert_eq!(digest, PINNED_OUTAGES, "digest {digest:#018X}");
}
