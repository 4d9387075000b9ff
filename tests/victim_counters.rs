//! Every victim's counter stream, pinned to a constant.
//!
//! The victim windows assemble their frames from layers shared across the
//! process (keyboard backdrop and key grids, login backdrop and chrome),
//! keyed by keyboard or app, device configuration and page. A wrong key
//! would hand one session another's layers and still be self-consistent run
//! to run, so this test compares against a digest computed by the same test
//! body on windows that built every frame from scratch, rather than against
//! a second run.
//!
//! Four sessions run in one process, so a table keyed too coarsely would
//! cross-feed them: a credential that needs Shift and the number page under
//! ~5 Hz system noise, a second keyboard on a second device, PNC's animated
//! login, and the popup-disabled mitigation with the first session's
//! keyboard and app on the second device.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::apps::TargetApp;
use android_ui::keyboard::KeyboardKind;
use android_ui::screen::{DeviceConfig, PhoneModel};
use android_ui::sim::{SimConfig, UiSimulation};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Types `text` into a victim built from `config` and folds, on the 8 ms
/// read grid, every counter value the GPU shows, then the number of frames
/// submitted and the text the victim ended with.
fn session_digest(hash: u64, config: SimConfig, text: &str) -> u64 {
    let seed = config.seed;
    let mut sim = UiSimulation::new(config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut typist = Typist::new(VOLUNTEERS[2]);
    let plan = typist.type_text(text, SimInstant::from_millis(600), &mut rng);
    let end = plan.end + SimDuration::from_millis(600);
    sim.queue_all(plan.events);

    let mut digest = hash;
    let mut t = SimInstant::ZERO;
    while t < end {
        t += SimDuration::from_millis(8);
        sim.advance_to(t);
        let counters = sim.gpu_mut().counters_at(t);
        for value in counters.as_array() {
            digest = fnv1a(digest, &value.to_le_bytes());
        }
    }
    assert_eq!(sim.truth().final_text(), text, "the victim must type the whole credential");
    digest = fnv1a(digest, &sim.frames_submitted().to_le_bytes());
    fnv1a(digest, sim.truth().final_text().as_bytes())
}

#[test]
fn victim_counter_streams_replay_the_pinned_digest() {
    // Computed by this same test body on the windows as they were before
    // their static layers were shared. A change here is a change to what
    // the victim renders and must be explained, not re-pinned silently.
    const PINNED: u64 = 0x588E_4677_642A_582C;

    let second_device = DeviceConfig::for_phone(PhoneModel::GooglePixel2);
    let sessions = [
        (SimConfig { system_noise_hz: 5.0, ..SimConfig::paper_default(11) }, "tiGer42x"),
        (
            SimConfig {
                device: second_device,
                keyboard: KeyboardKind::Swift,
                app: TargetApp::Amex,
                ..SimConfig::paper_default(12)
            },
            "k3yPad",
        ),
        (SimConfig { app: TargetApp::Pnc, ..SimConfig::paper_default(13) }, "pnc9"),
        (
            SimConfig {
                device: second_device,
                popups_enabled: false,
                ..SimConfig::paper_default(14)
            },
            "mQ7rs",
        ),
    ];
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for (config, text) in sessions {
        digest = session_digest(digest, config, text);
    }
    assert_eq!(digest, PINNED, "digest {digest:#018X}");
}
