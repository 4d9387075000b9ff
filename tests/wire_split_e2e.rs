//! Split-session equivalence over a live lossy transport (the `wire`
//! crate's contract).
//!
//! The reliability layer promises *exactly-once, in-order* delivery of the
//! sample stream to the classifier regardless of what the link does to
//! individual datagrams. The consequence under test: the final inferred
//! credential from a split session must match the in-process pipeline for
//! every seeded loss/reorder/duplication/truncation/outage plan — link
//! damage shows up in the [`LinkDegradationReport`], never in the result.
//!
//! Both ends pump the instant something is due for them, so a press
//! streams back exactly one round trip after the server decides it over a
//! clean link, and never sooner over a lossy one.

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::fleet::Session;
use gpu_eaves::attack::offline::ModelStore;
use gpu_eaves::attack::registry::{ModelDigest, Registry};
use gpu_eaves::attack::sampler::SamplerReport;
use gpu_eaves::attack::service::{AttackService, ServiceConfig, ServiceError, SessionResult};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::wire::{
    frame, run_split_session, ClassifierServer, Direction, ExfilClient, ExfilConfig, LinkPlan,
    Message, SimTransport, SplitOutcome, SplitSessionOutcome, SplitSessionTask,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn single_store() -> ModelStore {
    let cfg = SimConfig::paper_default(0);
    let registry = Registry::default();
    let mut store = ModelStore::new();
    store.add_handle(registry.get_or_train(cfg.device, cfg.keyboard, cfg.app));
    store
}

/// Builds the identically-seeded victim used by both drivers.
fn victim(seed: u64) -> (UiSimulation, SimInstant) {
    let mut sim = UiSimulation::new(SimConfig::paper_default(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut typist = Typist::new(VOLUNTEERS[seed as usize % VOLUNTEERS.len()]);
    let plan = typist.type_text("hunter2pass", SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    (sim, end)
}

fn run_in_process(store: &ModelStore, seed: u64) -> SessionResult {
    let (mut sim, end) = victim(seed);
    let service = AttackService::new(store.clone(), ServiceConfig::default());
    service.eavesdrop(&mut sim, end).expect("in-process session")
}

fn run_split(store: &ModelStore, seed: u64, plan: &LinkPlan) -> SplitOutcome {
    run_split_with(store, seed, plan, ExfilConfig::default())
}

fn run_split_with(
    store: &ModelStore,
    seed: u64,
    plan: &LinkPlan,
    config: ExfilConfig,
) -> SplitOutcome {
    let (mut sim, end) = victim(seed);
    let service = AttackService::new(store.clone(), ServiceConfig::default());
    run_split_session(&service, &mut sim, end, plan, config)
        .expect("split session must complete, not error, under link damage")
}

#[test]
fn fault_free_transport_is_byte_identical_to_in_process() {
    let store = single_store();
    for seed in [80u64, 81] {
        let inproc = run_in_process(&store, seed);
        let outcome = run_split(&store, seed, &LinkPlan::new(seed));
        assert!(
            outcome.result.link.is_clean(),
            "fault-free link must report clean (seed {seed}): {}",
            outcome.result.link
        );
        assert!(outcome.completed, "fault-free handshake must finish (seed {seed})");
        let mut delinked = outcome.result.clone();
        delinked.link = Default::default();
        assert_eq!(delinked, inproc, "fault-free split diverged from in-process (seed {seed})");
        assert_eq!(
            outcome.recovered_over_wire.as_deref(),
            Some(inproc.recovered_text.as_str()),
            "FinAck text must be the recovered credential (seed {seed})"
        );
        assert!(
            !inproc.recovered_text.is_empty(),
            "vacuous equivalence: nothing was recovered (seed {seed})"
        );
    }
}

/// How long after its `decided_at` each streamed-back press reached the
/// client.
fn arrival_lags(outcome: &SplitOutcome) -> Vec<SimDuration> {
    outcome
        .key_arrivals
        .iter()
        .map(|(key, arrived)| {
            arrived.checked_since(key.decided_at).expect("a press arrives after its decision")
        })
        .collect()
}

#[test]
fn a_clean_link_streams_each_press_back_one_round_trip_after_its_decision() {
    let store = single_store();
    for seed in [80u64, 81] {
        let plan = LinkPlan::new(seed);
        let outcome = run_split(&store, seed, &plan);
        let lags = arrival_lags(&outcome);
        assert!(!lags.is_empty(), "vacuous: no press streamed back (seed {seed})");
        // The read leaves at its own instant, the server pumps when it
        // lands and the client when the press does: two link latencies.
        let round_trip = plan.latency * 2;
        assert!(
            lags.iter().all(|&lag| lag == round_trip),
            "every press must land {round_trip:?} after its decision (seed {seed}): {lags:?}"
        );
    }
}

#[test]
fn no_lossy_plan_streams_a_press_back_within_less_than_a_round_trip() {
    let store = single_store();
    for (name, plan) in lossy_matrix() {
        let outcome = run_split(&store, 90, &plan);
        let lags = arrival_lags(&outcome);
        assert!(!lags.is_empty(), "vacuous: plan '{name}' streamed no press back");
        let round_trip = plan.latency * 2;
        assert!(
            lags.iter().all(|&lag| lag >= round_trip),
            "plan '{name}' streamed a press back sooner than {round_trip:?}: {lags:?}"
        );
    }
}

/// The everything-0.5 plan loses frames at the head of the send window
/// while the frames behind them get through: the duplicate Acks those
/// draw retransmit the lost frame within about a round trip, so no press
/// waits out a retransmit backoff of hundreds of ms behind it.
#[test]
fn a_lost_frame_holds_the_presses_behind_it_back_by_little() {
    let store = single_store();
    let plan = LinkPlan::with_intensity(12, 0.5, SimDuration::from_secs(8));
    let outcome = run_split(&store, 90, &plan);
    assert!(outcome.result.link.retransmits > 0, "test premise: loss: {}", outcome.result.link);
    let lags = arrival_lags(&outcome);
    assert!(!lags.is_empty(), "vacuous: no press streamed back");
    let bound = SimDuration::from_millis(150);
    assert!(
        lags.iter().all(|&lag| lag <= bound),
        "every press must land within {bound:?} of its decision: {lags:?}"
    );
}

/// The seeded damage plans every lossy test runs, by name.
fn lossy_matrix() -> Vec<(&'static str, LinkPlan)> {
    let horizon = SimDuration::from_secs(8);
    vec![
        ("loss", LinkPlan::new(7).with_loss(0.25)),
        ("reorder", LinkPlan::new(8).with_reorder(0.4)),
        ("duplication", LinkPlan::new(9).with_duplication(0.3)),
        ("truncation", LinkPlan::new(10).with_truncation(0.25)),
        (
            "outages",
            LinkPlan::new(11)
                .with_outages(SimDuration::from_secs(2), SimDuration::from_millis(400)),
        ),
        ("everything-0.5", LinkPlan::with_intensity(12, 0.5, horizon)),
        ("everything-0.9", LinkPlan::with_intensity(13, 0.9, horizon)),
    ]
}

#[test]
fn every_seeded_lossy_plan_completes_and_matches() {
    let store = single_store();
    let seed = 90u64;
    let inproc = run_in_process(&store, seed);
    assert!(!inproc.recovered_text.is_empty(), "baseline must recover text");

    for (name, plan) in &lossy_matrix() {
        let outcome = run_split(&store, seed, plan);
        // Exactly-once in-order delivery: the analysis half must be
        // oblivious to the link, so the whole result matches modulo the
        // degradation tally.
        assert!(outcome.completed, "plan '{name}' never finished its handshake");
        let mut delinked = outcome.result.clone();
        delinked.link = Default::default();
        assert_eq!(
            delinked, inproc,
            "plan '{name}' changed the inferred result — the reliability layer leaked"
        );
        assert!(
            !outcome.result.link.is_clean(),
            "plan '{name}' was supposed to damage the link but the report is clean: {}",
            outcome.result.link
        );
        assert!(
            outcome.result.link.frames_sent > 0 && outcome.result.link.bytes_acked > 0,
            "plan '{name}' report looks unpopulated: {}",
            outcome.result.link
        );
    }
}

/// The payload bytes of a session that sends nothing but its Hello and its
/// Fin: all that an `ExfilClient::new` client has to get acked.
fn hello_and_fin_payload(report: SamplerReport) -> u64 {
    let hello = Message::Hello { model_digest: ModelDigest::ZERO }.encode();
    (hello.len() + Message::Fin { report }.encode().len()) as u64
}

/// A FinAck lost on its way back while the Ack sent behind it arrives:
/// the Ack covers the Fin, but the Fin stays pending, and its retransmit
/// asks the server for the FinAck again.
#[test]
fn a_lost_finack_is_asked_for_again() {
    let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
    // Two perfect links joined by a relay that drops the first FinAck and
    // forwards every other datagram.
    let mut client_side = SimTransport::new(&LinkPlan::new(1));
    let mut server_side = SimTransport::new(&LinkPlan::new(2));
    let mut client = ExfilClient::new(ExfilConfig::default());
    let mut server = ClassifierServer::new(&service);
    let report = SamplerReport::default();

    let mut now = SimInstant::ZERO;
    client.finish_sampling(&report);
    let (mut finacks_dropped, mut acks_after_drop) = (0, 0);
    while !client.done() && now < SimInstant::from_millis(10_000) {
        now += SimDuration::from_millis(1);
        client.pump(&mut client_side, now);
        for datagram in client_side.recv(Direction::ToServer, now) {
            server_side.send(Direction::ToServer, now, datagram);
        }
        server.pump(&mut server_side, now);
        for datagram in server_side.recv(Direction::ToClient, now) {
            let msg =
                frame::decode_in_place(&datagram).map(|(_, payload)| Message::decode(payload));
            match msg {
                Ok(Ok(Message::FinAck { .. })) if finacks_dropped == 0 => {
                    finacks_dropped += 1;
                    continue;
                }
                Ok(Ok(Message::Ack { .. })) if finacks_dropped > 0 => acks_after_drop += 1,
                _ => {}
            }
            client_side.send(Direction::ToClient, now, datagram);
        }
    }

    assert_eq!(finacks_dropped, 1, "test premise: the first FinAck was dropped");
    assert!(acks_after_drop > 0, "test premise: the Ack behind the FinAck was delivered");
    assert!(client.done(), "a lost FinAck wedged the handshake");
    assert_eq!(client.recovered(), Some(""), "an empty store recovers nothing");
    let link = client.link_report();
    assert!(link.retransmits > 0, "only the Fin's retransmit can re-request the FinAck: {link}");
    assert_eq!(
        link.bytes_acked,
        hello_and_fin_payload(report),
        "the Hello and the acked Fin must count once each: {link}"
    );
}

/// A FinAck that lands while the Ack sent behind it is lost: the server
/// releases frames strictly in order, so the FinAck alone proves the Fin
/// arrived, and the Fin's payload counts as acked.
#[test]
fn a_finack_without_its_ack_acks_the_fin() {
    let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
    // Two perfect links joined by a relay that drops the Ack sent right
    // behind the first FinAck and forwards every other datagram.
    let mut client_side = SimTransport::new(&LinkPlan::new(1));
    let mut server_side = SimTransport::new(&LinkPlan::new(2));
    let mut client = ExfilClient::new(ExfilConfig::default());
    let mut server = ClassifierServer::new(&service);
    let report = SamplerReport::default();

    let mut now = SimInstant::ZERO;
    client.finish_sampling(&report);
    let (mut finacks, mut acks_dropped) = (0, 0);
    while !client.done() && now < SimInstant::from_millis(10_000) {
        now += SimDuration::from_millis(1);
        client.pump(&mut client_side, now);
        for datagram in client_side.recv(Direction::ToServer, now) {
            server_side.send(Direction::ToServer, now, datagram);
        }
        server.pump(&mut server_side, now);
        for datagram in server_side.recv(Direction::ToClient, now) {
            match frame::decode_in_place(&datagram).map(|(_, payload)| Message::decode(payload)) {
                Ok(Ok(Message::FinAck { .. })) => finacks += 1,
                Ok(Ok(Message::Ack { .. })) if finacks == 1 && acks_dropped == 0 => {
                    acks_dropped += 1;
                    continue;
                }
                _ => {}
            }
            client_side.send(Direction::ToClient, now, datagram);
        }
    }

    assert_eq!(acks_dropped, 1, "test premise: the Ack behind the FinAck was dropped");
    assert!(client.done(), "the FinAck completes the handshake");
    let link = client.link_report();
    assert_eq!(link.bytes_acked, hello_and_fin_payload(report), "the FinAck acks the Fin: {link}");
}

/// Steps a split session of victim `seed` over `plan` to its end as the
/// fleet scheduler does, one quantum per step.
fn run_task(
    store: &ModelStore,
    seed: u64,
    plan: &LinkPlan,
    config: ExfilConfig,
) -> SplitSessionOutcome {
    let (sim, end) = victim(seed);
    let service = AttackService::new(store.clone(), ServiceConfig::default());
    let mut task = SplitSessionTask::new(0, &service, sim, end, plan, config);
    loop {
        if let Some(outcome) = task.step() {
            return outcome;
        }
    }
}

/// A link that goes down mid-session and stays down past the drain
/// deadline: the handshake never completes, and the server session is
/// salvaged from what did arrive. The drain runs from event to event in
/// one quantum, however long the deadline.
#[test]
fn a_link_that_never_comes_back_is_salvaged() {
    let store = single_store();
    let plan = LinkPlan::new(5)
        .with_outages(SimDuration::from_millis(500), SimDuration::from_secs(120))
        .with_horizon(SimDuration::from_secs(2));
    let config = ExfilConfig { drain_timeout: SimDuration::from_secs(1), ..ExfilConfig::default() };
    let outages = SimTransport::new(&plan).outages().to_vec();
    assert!(
        outages.len() == 1
            && outages[0].0 > SimInstant::from_millis(100)
            && outages[0].1 > SimInstant::from_millis(60_000),
        "test premise: one outage from after the Hello to past the drain deadline: {outages:?}"
    );

    let track = spansight::register_track("wire-split-salvage");
    let task = {
        let _track = spansight::enter_track(track);
        run_task(&store, 92, &plan, config)
    };
    let drain_timeouts =
        spansight::snapshot().for_track(track).counter("wire.session.drain_timeouts");
    let outcome = task.outcome.as_ref().expect("link damage never fails a session");

    assert!(!outcome.completed, "no FinAck can cross a dead link");
    assert_eq!(outcome.recovered_over_wire, None);
    assert!(outcome.result.link.frames_dropped > 0, "{}", outcome.result.link);
    assert!(
        outcome.transport.outage_drops > 0,
        "the outage must be what stopped the session: {:?}",
        outcome.transport
    );
    assert_eq!(drain_timeouts, 1, "the salvaged session must be counted");
    assert_eq!(outcome.drain, config.drain_timeout, "the drain runs to its deadline");
    // The same victim over a clean link samples the same reads, so it
    // takes the same streaming quanta, and its drain is one round trip in
    // one quantum. A second of retransmits into the void costs no more.
    let clean = run_task(&store, 92, &LinkPlan::new(5), config);
    let clean_drain = clean.outcome.as_ref().expect("a clean link completes").drain;
    assert_eq!(clean_drain, LinkPlan::new(5).latency * 2, "a clean drain is one round trip");
    assert!(
        task.quanta <= clean.quanta,
        "a dead link's drain took {} quanta beyond the clean twin's {}",
        task.quanta - clean.quanta,
        clean.quanta
    );
}

#[test]
fn pinning_a_digest_the_server_lacks_is_a_typed_error() {
    let store = single_store();
    let service = AttackService::new(store, ServiceConfig::default());

    // Pin a digest built from a model the server never loaded: same device,
    // different target app → different canonical encoding, different address.
    let foreign = {
        let cfg = SimConfig::paper_default(0);
        let registry = Registry::default();
        registry.get_or_train(cfg.device, cfg.keyboard, gpu_eaves::android_ui::TargetApp::Gedit)
    };
    assert!(
        service.store().find_digest(&foreign.digest()).is_none(),
        "test premise: the server store must not hold the foreign digest"
    );

    let plan = LinkPlan::new(99);
    let mut transport = SimTransport::new(&plan);
    let mut client = ExfilClient::with_model(ExfilConfig::default(), foreign.digest());
    let mut server = ClassifierServer::new(&service);

    let mut now = SimInstant::from_millis(1);
    client.finish_sampling(&SamplerReport::default());
    for _ in 0..200 {
        if client.done() {
            break;
        }
        now += SimDuration::from_millis(1);
        client.pump(&mut transport, now);
        server.pump(&mut transport, now);
    }

    assert!(client.done(), "the Fin handshake must terminate even on a model mismatch");
    assert_eq!(client.recovered(), Some(""), "a mismatched session recovers nothing");
    match server.result() {
        Some(Err(ServiceError::ModelDigestMismatch(digest))) => {
            assert_eq!(*digest, foreign.digest(), "the error must name the requested digest");
        }
        other => panic!("expected ModelDigestMismatch, got {other:?}"),
    }
}

#[test]
fn same_link_plan_replays_identically() {
    let store = single_store();
    let plan = LinkPlan::with_intensity(21, 0.7, SimDuration::from_secs(8));
    let a = run_split(&store, 91, &plan);
    let b = run_split(&store, 91, &plan);
    assert_eq!(a.result, b.result, "seeded link plans must replay bit for bit");
    assert_eq!(a.transport, b.transport);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.key_arrivals, b.key_arrivals);
}
