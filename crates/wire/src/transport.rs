//! A deterministic, seeded, hostile transport in sim-time.
//!
//! [`LinkPlan`] mirrors [`kgsl::FaultPlan`]'s idiom exactly: seeded
//! per-datagram fault rates plus scheduled link outages expanded eagerly
//! from the seed (via the shared [`kgsl::expand_poisson`] scaffolding), so
//! the same plan against the same send sequence misbehaves identically,
//! bit for bit. [`SimTransport`] is the runtime half: both directions of an
//! unreliable datagram link between the on-device sampler and the offsite
//! classifier.
//!
//! Faults modelled per datagram: loss, duplication, reordering (a datagram
//! is held back and released just after the next send in its direction),
//! truncation (a prefix survives — the frame CRC catches it downstream),
//! and uniform latency jitter. Scheduled outages drop everything sent
//! while the link is down; the client's oldest unacked frame keeps
//! retransmitting at its capped backoff until a copy gets through.

use adreno_sim::time::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible description of how the link misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Seed for every fault draw and the outage schedule.
    pub seed: u64,
    /// Per-datagram drop probability.
    pub loss: f64,
    /// Per-datagram duplication probability.
    pub duplicate: f64,
    /// Per-datagram probability of being held back behind the next send
    /// (delivered out of order).
    pub reorder: f64,
    /// Per-datagram probability of truncation to a strict prefix.
    pub truncate: f64,
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Uniform extra latency in `[0, jitter)` added per delivery.
    pub jitter: SimDuration,
    /// Mean interarrival of link outages (`None` = never).
    pub outage_mean: Option<SimDuration>,
    /// How long each outage lasts.
    pub outage_len: SimDuration,
    /// Horizon over which outages are generated.
    pub horizon: SimDuration,
}

impl LinkPlan {
    /// A perfectly reliable link: fixed latency, nothing lost, nothing
    /// reordered. Running the split session over it must reproduce the
    /// in-process pipeline byte for byte.
    pub fn new(seed: u64) -> Self {
        LinkPlan {
            seed,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            truncate: 0.0,
            latency: SimDuration::from_millis(2),
            jitter: SimDuration::ZERO,
            outage_mean: None,
            outage_len: SimDuration::from_millis(400),
            horizon: SimDuration::from_millis(60_000),
        }
    }

    /// Sets the per-datagram loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.loss = rate;
        self
    }

    /// Sets the per-datagram duplication probability.
    pub fn with_duplication(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.duplicate = rate;
        self
    }

    /// Sets the per-datagram reorder probability.
    pub fn with_reorder(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.reorder = rate;
        self
    }

    /// Sets the per-datagram truncation probability.
    pub fn with_truncation(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.truncate = rate;
        self
    }

    /// Sets the base one-way latency and the uniform jitter on top.
    pub fn with_latency(mut self, latency: SimDuration, jitter: SimDuration) -> Self {
        self.latency = latency;
        self.jitter = jitter;
        self
    }

    /// Generates link outages with the given mean interarrival and length.
    pub fn with_outages(mut self, mean: SimDuration, len: SimDuration) -> Self {
        self.outage_mean = Some(mean);
        self.outage_len = len;
        self
    }

    /// Sets the horizon over which outages are generated.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// A one-knob plan for sweeps: `intensity` in `[0, 1]` scales every
    /// fault rate; at 0 the plan is the perfect link.
    pub fn with_intensity(seed: u64, intensity: f64, horizon: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&intensity));
        let mut plan = LinkPlan::new(seed).with_horizon(horizon);
        if intensity > 0.0 {
            plan.loss = 0.20 * intensity;
            plan.duplicate = 0.06 * intensity;
            plan.reorder = 0.10 * intensity;
            plan.truncate = 0.06 * intensity;
            plan.jitter = SimDuration::from_millis(4).mul_f64(intensity);
            // Roughly two outages of a few hundred ms over the horizon at
            // full intensity.
            plan.outage_mean = Some(horizon.mul_f64(1.0 / (2.0 * intensity)));
            plan.outage_len = SimDuration::from_millis(350).mul_f64(intensity);
        }
        plan
    }
}

/// Which way a datagram travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Sampler → classifier.
    ToServer,
    /// Classifier → sampler.
    ToClient,
}

/// Counts of everything the transport did to the traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Datagrams handed to the transport.
    pub sent: u64,
    /// Datagrams delivered to a receiver.
    pub delivered: u64,
    /// Datagrams dropped (loss draws plus outages).
    pub dropped: u64,
    /// Of the dropped, those dropped because the link was down.
    pub outage_drops: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Datagrams cut to a strict prefix.
    pub truncated: u64,
    /// Datagrams held back and delivered out of order.
    pub reordered: u64,
}

#[derive(Debug)]
struct InFlight {
    arrive: SimInstant,
    order: u64,
    bytes: Vec<u8>,
}

#[derive(Debug, Default)]
struct Lane {
    /// Sorted by `(arrive, order)`; drained from the front.
    queue: Vec<InFlight>,
    /// A datagram held back by a reorder draw, released just after the
    /// next send on this lane.
    held: Option<Vec<u8>>,
}

impl Lane {
    fn insert(&mut self, flight: InFlight) {
        let at =
            self.queue.partition_point(|q| (q.arrive, q.order) <= (flight.arrive, flight.order));
        self.queue.insert(at, flight);
    }
}

/// The runtime half of a [`LinkPlan`]: a bidirectional unreliable datagram
/// link, advanced purely by the sim-times passed into
/// [`send`](SimTransport::send) and [`recv`](SimTransport::recv).
#[derive(Debug)]
pub struct SimTransport {
    plan: LinkPlan,
    rng: StdRng,
    /// Sorted, non-overlapping `[start, end)` windows when the link is down.
    outages: Vec<(SimInstant, SimInstant)>,
    to_server: Lane,
    to_client: Lane,
    order: u64,
    stats: TransportStats,
}

impl SimTransport {
    /// Expands `plan` into a concrete transport. Deterministic: equal plans
    /// yield equal behaviour against equal call sequences.
    pub fn new(plan: &LinkPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x1157_0C0A_57AB_1E00);
        let mut schedule: Vec<(SimInstant, ())> = Vec::new();
        if let Some(mean) = plan.outage_mean {
            kgsl::expand_poisson(&mut rng, &mut schedule, mean, plan.horizon, ());
        }
        schedule.sort_by_key(|(when, ())| when.as_nanos());
        let mut outages: Vec<(SimInstant, SimInstant)> = Vec::new();
        for (start, ()) in schedule {
            let end = start + plan.outage_len;
            match outages.last_mut() {
                // Merge overlapping windows so `is_down` stays a simple scan.
                Some((_, prev_end)) if start <= *prev_end => *prev_end = (*prev_end).max(end),
                _ => outages.push((start, end)),
            }
        }
        SimTransport {
            plan: plan.clone(),
            rng,
            outages,
            to_server: Lane::default(),
            to_client: Lane::default(),
            order: 0,
            stats: TransportStats::default(),
        }
    }

    /// Whether the link is inside a scheduled outage at `now`.
    pub fn is_down(&self, now: SimInstant) -> bool {
        self.outages.iter().any(|&(start, end)| start <= now && now < end)
    }

    /// Scheduled outage windows, for tests and reports.
    pub fn outages(&self) -> &[(SimInstant, SimInstant)] {
        &self.outages
    }

    /// Everything the transport has done so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    fn lane(&mut self, dir: Direction) -> &mut Lane {
        match dir {
            Direction::ToServer => &mut self.to_server,
            Direction::ToClient => &mut self.to_client,
        }
    }

    fn arrival(&mut self, now: SimInstant) -> SimInstant {
        let mut arrive = now + self.plan.latency;
        if self.plan.jitter > SimDuration::ZERO {
            arrive += SimDuration::from_nanos(self.rng.gen_range(0..self.plan.jitter.as_nanos()));
        }
        arrive
    }

    /// Hands one datagram to the link at sim-time `now`.
    pub fn send(&mut self, dir: Direction, now: SimInstant, mut bytes: Vec<u8>) {
        self.stats.sent += 1;
        if self.is_down(now) {
            self.stats.dropped += 1;
            self.stats.outage_drops += 1;
            return;
        }
        if self.plan.loss > 0.0 && self.rng.gen::<f64>() < self.plan.loss {
            self.stats.dropped += 1;
            return;
        }
        if self.plan.truncate > 0.0
            && !bytes.is_empty()
            && self.rng.gen::<f64>() < self.plan.truncate
        {
            let keep = self.rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
            self.stats.truncated += 1;
        }
        let duplicate = self.plan.duplicate > 0.0 && self.rng.gen::<f64>() < self.plan.duplicate;
        if duplicate {
            self.stats.duplicated += 1;
        }
        let held_back =
            self.plan.reorder > 0.0 && !duplicate && self.rng.gen::<f64>() < self.plan.reorder;
        if held_back && self.lane(dir).held.is_none() {
            self.stats.reordered += 1;
            self.lane(dir).held = Some(bytes);
            return;
        }
        // The datagram moves into its lane; only an injected duplicate is a
        // copy of it.
        if duplicate {
            let arrive = self.arrival(now);
            self.deliver_at(dir, arrive, bytes.clone());
        }
        let arrive = self.arrival(now);
        self.deliver_at(dir, arrive, bytes);
        // Release a previously held datagram just *after* this send, which
        // is what makes it arrive out of order.
        if let Some(late) = self.lane(dir).held.take() {
            let arrive = self.arrival(now) + SimDuration::from_nanos(1);
            self.deliver_at(dir, arrive, late);
        }
    }

    /// Queues `bytes` on `dir` to arrive at `arrive`, behind everything
    /// already due then.
    fn deliver_at(&mut self, dir: Direction, arrive: SimInstant, bytes: Vec<u8>) {
        let order = self.order;
        self.order += 1;
        self.lane(dir).insert(InFlight { arrive, order, bytes });
    }

    /// Removes and returns every datagram due at or before `now` on `dir`,
    /// in arrival order.
    pub fn recv(&mut self, dir: Direction, now: SimInstant) -> Vec<Vec<u8>> {
        let mut delivered = Vec::new();
        self.recv_into(dir, now, &mut delivered);
        delivered
    }

    /// When the first datagram queued on `dir` arrives, or `None` when none
    /// is in flight. A datagram held back by a reorder draw is not in
    /// flight until the next send on its lane releases it.
    pub(crate) fn next_arrival(&self, dir: Direction) -> Option<SimInstant> {
        let lane = match dir {
            Direction::ToServer => &self.to_server,
            Direction::ToClient => &self.to_client,
        };
        lane.queue.first().map(|q| q.arrive)
    }

    /// [`recv`](SimTransport::recv) into the caller's buffer: appends every
    /// datagram due at or before `now` on `dir` to `out`, in arrival order.
    /// Returns at once when none is due.
    pub(crate) fn recv_into(&mut self, dir: Direction, now: SimInstant, out: &mut Vec<Vec<u8>>) {
        let lane = self.lane(dir);
        if lane.queue.first().is_none_or(|q| q.arrive > now) {
            return;
        }
        let due = lane.queue.partition_point(|q| q.arrive <= now);
        out.extend(lane.queue.drain(..due).map(|q| q.bytes));
        self.stats.delivered += due as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimInstant {
        SimInstant::from_millis(v)
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let mut t = SimTransport::new(&LinkPlan::new(1));
        for i in 0..10u8 {
            t.send(Direction::ToServer, ms(u64::from(i) * 10), vec![i]);
        }
        assert!(t.recv(Direction::ToServer, ms(1)).is_empty(), "nothing before latency");
        let got = t.recv(Direction::ToServer, ms(1_000));
        assert_eq!(got, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert_eq!(t.stats().dropped, 0);
        assert_eq!(t.stats().delivered, 10);
    }

    #[test]
    fn next_arrival_is_the_earliest_datagram_in_flight() {
        let mut t = SimTransport::new(&LinkPlan::new(1));
        assert_eq!(t.next_arrival(Direction::ToServer), None);
        t.send(Direction::ToServer, ms(5), vec![1]);
        t.send(Direction::ToServer, ms(3), vec![2]);
        assert_eq!(t.next_arrival(Direction::ToServer), Some(ms(5)), "3 ms + 2 ms latency");
        assert_eq!(t.next_arrival(Direction::ToClient), None, "lanes are apart");
        assert_eq!(t.recv(Direction::ToServer, ms(5)), vec![vec![2]]);
        assert_eq!(t.next_arrival(Direction::ToServer), Some(ms(7)));
        t.recv(Direction::ToServer, ms(7));
        assert_eq!(t.next_arrival(Direction::ToServer), None);
    }

    #[test]
    fn same_plan_same_behaviour() {
        let plan = LinkPlan::with_intensity(7, 0.8, SimDuration::from_secs(30));
        let run = |plan: &LinkPlan| {
            let mut t = SimTransport::new(plan);
            let mut log = Vec::new();
            for i in 0..200u64 {
                t.send(Direction::ToServer, ms(i * 5), vec![i as u8; 16]);
                log.extend(t.recv(Direction::ToServer, ms(i * 5)));
            }
            log.extend(t.recv(Direction::ToServer, ms(10_000)));
            (log, t.stats())
        };
        assert_eq!(run(&plan), run(&plan));
    }

    #[test]
    fn lossy_plan_actually_drops_and_reorders() {
        let plan = LinkPlan::new(3)
            .with_loss(0.3)
            .with_reorder(0.2)
            .with_duplication(0.1)
            .with_truncation(0.1)
            .with_latency(SimDuration::from_millis(2), SimDuration::from_millis(3));
        let mut t = SimTransport::new(&plan);
        for i in 0..500u64 {
            t.send(Direction::ToServer, ms(i * 4), vec![7; 32]);
        }
        let delivered = t.recv(Direction::ToServer, ms(100_000));
        let s = t.stats();
        assert!(s.dropped > 50, "loss 0.3 over 500 sends barely fired: {s:?}");
        assert!(s.duplicated > 10, "{s:?}");
        assert!(s.reordered > 20, "{s:?}");
        assert!(s.truncated > 10, "{s:?}");
        assert!(delivered.iter().any(|d| d.len() < 32), "truncated copies must surface");
        assert_eq!(s.delivered, delivered.len() as u64);
    }

    #[test]
    fn outages_drop_everything_while_down() {
        let plan =
            LinkPlan::new(9).with_outages(SimDuration::from_secs(2), SimDuration::from_millis(500));
        let mut t = SimTransport::new(&plan);
        assert!(!t.outages().is_empty(), "outage schedule must be populated");
        let (start, end) = t.outages()[0];
        let down_at = start + (end - start) / 2;
        assert!(t.is_down(down_at));
        t.send(Direction::ToClient, down_at, vec![1]);
        assert_eq!(t.stats().outage_drops, 1);
        assert!(t.recv(Direction::ToClient, down_at + SimDuration::from_secs(10)).is_empty());
    }

    #[test]
    fn zero_intensity_is_the_perfect_link() {
        let plan = LinkPlan::with_intensity(4, 0.0, SimDuration::from_secs(10));
        assert_eq!(plan, LinkPlan::new(4).with_horizon(SimDuration::from_secs(10)));
    }
}
