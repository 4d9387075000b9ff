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
/// re-pin it silently. Pinned under wire version 4, one frame per changed
/// read, with both ends pumping at each instant something is due for them,
/// a measured retransmit timeout and fast retransmit on duplicate Acks, a
/// FinAck that counts the Fin's payload as acked, and a Hello that carries
/// only the model digest and is re-sent only until the first Ack.
const PINNED: [u64; VICTIMS * LINK_MIX.len()] = [
    0xEC58_8827_A3AE_4C76,
    0xA07E_2643_2465_092E,
    0xB2BF_0C04_1C12_8D44,
    0x8DB4_5005_2D66_BC85,
    0x5FB4_F5D3_A88C_5038,
    0xFF94_8594_79B6_DA2F,
    0x842A_3FF2_C061_3CE8,
    0xFC9A_0C57_3FA5_72C1,
    0xAFB7_7848_A478_7AD9,
    0x4F46_4D49_8204_0688,
    0x4A55_D21F_DDEE_7D42,
    0x17FA_5D29_DF4D_8E5A,
    0xD4CE_0891_CF25_667A,
    0x56CC_E902_56A9_C221,
    0xBB48_32A1_B085_D081,
    0xC671_012C_654F_A1ED,
    0x8273_F2CE_459C_FB23,
    0x4B3D_0A9A_02AD_D284,
    0x631D_531D_9AB6_F827,
    0xB016_DE70_1301_7492,
    0xDCF2_ACF1_A2EE_00D3,
    0xFF3E_119C_4293_19EC,
    0x14C3_7521_2411_57F9,
    0x9E57_CA1F_81EF_B793,
    0x70AA_92A3_FE07_6607,
    0xF0A1_F4D8_4856_01C3,
    0x614C_A4B7_67EC_B0CF,
    0xF804_4684_0C64_F108,
    0xD271_0935_7CB1_BF58,
    0x89B5_3C0B_88BD_2D75,
    0xC879_8C96_69D3_195D,
    0xC6E5_2C4D_DBFC_5E6D,
    0xE088_96E4_10F7_C959,
    0x6594_0A68_C39E_1D5C,
    0xAA3C_6C16_D2D0_E339,
    0x90E6_7048_2903_D0CA,
];

/// The digest of the outage-heavy session.
const PINNED_OUTAGES: u64 = 0x9B34_FE0B_9F58_F55A;

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
