//! Where a split session allocates, counted per thread.
//!
//! A split session pumps both ends of its link at each instant something
//! is due for either, so one end often finds nothing due, and a link
//! driven by hand on a fixed tick finds nothing due at almost every pump:
//! such a pump must cost no heap allocation on either end. Beyond that, a
//! clean split session moves each changed read through the wire as one
//! framed datagram; what it allocates beyond the in-process session of the
//! same victim must be at most half of what it allocated when it shipped
//! 32-read batches and every datagram was a fresh payload copied at each
//! hop.
//!
//! Allocations are counted per thread, by `counting_alloc`: the tests of
//! this file run in parallel, and the harness allocates on its own thread
//! when one of them finishes.

mod counting_alloc;

use std::sync::OnceLock;

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::time::{SimDuration, SimInstant};
use bench::trials::{self, trial_plan};
use bench::TrialOptions;
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::offline::ModelStore;
use gpu_eaves::attack::registry::Registry;
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::attack::trace::Sample;
use gpu_eaves::input_bot::corpus::CredentialKind;
use gpu_eaves::input_bot::timing::VolunteerModel;
use gpu_eaves::wire::{
    run_split_session, ClassifierServer, ExfilClient, ExfilConfig, LinkPlan, SimTransport,
};

use counting_alloc::allocations;

/// Victims in the clean-session comparison.
const VICTIMS: usize = 12;

/// Allocations the [`VICTIMS`] clean split sessions made beyond their
/// in-process twins when the client shipped 32-read batches and every
/// datagram was a fresh payload `Vec` framed into a second one, cloned into
/// the transport's lane and copied out again by the frame decoder.
const BEFORE_EXTRA: u64 = 4_289;

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

/// A 6-character victim drawn as the `fleet` workload draws one: its
/// credential, its typist and its seed.
type Victim = (String, VolunteerModel, u64);

/// A fresh simulation of the victim with its typing queued, and when
/// sampling stops.
fn sim((text, volunteer, seed): &Victim) -> (UiSimulation, SimInstant) {
    let opts = TrialOptions { volunteer: *volunteer, ..TrialOptions::paper_default(0) };
    trials::victim(&opts, text, *seed)
}

fn sample(ms: u64) -> Sample {
    let mut values = [0u64; NUM_TRACKED];
    for (i, v) in values.iter_mut().enumerate() {
        *v = 1_000 * ms + i as u64;
    }
    Sample { at: SimInstant::from_millis(ms), values: CounterSet::from_array(values) }
}

#[test]
fn idle_pumps_allocate_nothing() {
    let service = service();
    let mut transport = SimTransport::new(&LinkPlan::new(3));
    let mut client = ExfilClient::new(ExfilConfig::default());
    let mut server = ClassifierServer::new(&service);
    let t0 = SimInstant::from_millis(100);
    client.push_samples(&[sample(0)]);
    client.pump(&mut transport, t0);
    // The Hello and the read arrive after the link's 2 ms latency; the
    // server answers each, and its Acks reach the client 2 ms later.
    let mut now = t0;
    let mut pump_until =
        |until: SimInstant, client: &mut ExfilClient, server: &mut ClassifierServer| {
            while now < until {
                now += SimDuration::from_micros(250);
                client.pump(&mut transport, now);
                server.pump(&mut transport, now);
            }
        };
    pump_until(t0 + SimDuration::from_millis(1), &mut client, &mut server);
    spansight::flush();
    // Before any datagram is due, every pump on either end is idle.
    let before = allocations();
    pump_until(
        t0 + SimDuration::from_millis(2) - SimDuration::from_micros(250),
        &mut client,
        &mut server,
    );
    assert_eq!(allocations() - before, 0, "idle pumps before the first arrival allocated");
    // Let the server answer and the client absorb the Acks; then, with the
    // read acknowledged and nothing left to send, pumps are idle again.
    pump_until(t0 + SimDuration::from_millis(10), &mut client, &mut server);
    spansight::flush();
    let before = allocations();
    pump_until(t0 + SimDuration::from_millis(25), &mut client, &mut server);
    assert_eq!(allocations() - before, 0, "idle pumps after the Acks allocated");
    assert!(client.link_report().bytes_acked > 0, "test premise: the read was acked");
}

#[test]
fn a_clean_split_session_allocates_little_beyond_its_in_process_twin() {
    let service = service();
    let victims = trial_plan(29, CredentialKind::Password, 6, VICTIMS);
    // Warm both paths up, so lazily built state is not counted.
    let ((mut a, end), (mut b, _)) = (sim(&victims[0]), sim(&victims[0]));
    service.eavesdrop(&mut a, end).expect("the victim is eavesdropped");
    run_split_session(&service, &mut b, end, &LinkPlan::new(1), ExfilConfig::default())
        .expect("a clean link completes the session");
    let (mut in_process, mut split) = (0u64, 0u64);
    for (i, victim) in victims.iter().enumerate() {
        let ((mut a, end), (mut b, _)) = (sim(victim), sim(victim));
        spansight::flush();
        let before = allocations();
        let local = service.eavesdrop(&mut a, end).expect("the victim is eavesdropped");
        in_process += allocations() - before;
        spansight::flush();
        let before = allocations();
        let plan = LinkPlan::new(i as u64);
        let outcome = run_split_session(&service, &mut b, end, &plan, ExfilConfig::default())
            .expect("a clean link completes the session");
        split += allocations() - before;
        assert!(outcome.completed && outcome.result.link.is_clean(), "{}", outcome.result.link);
        assert_eq!(outcome.result.recovered_text, local.recovered_text, "victim {i}");
    }
    let extra = split - in_process;
    println!(
        "{VICTIMS} victims: {in_process} allocations in process, {split} split, {extra} beyond \
         (before: {BEFORE_EXTRA})"
    );
    assert!(2 * extra <= BEFORE_EXTRA, "{extra} allocations beyond the in-process twins");
}
