//! The synchronous network executor.

use crate::faults::FaultPlan;
use crate::message::{Envelope, Payload};
use crate::node::{Node, Outbox};
use crate::stats::NetStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_graph::Csr;

/// A lock-step network of homogeneous nodes over a fixed topology.
pub struct Network<N: Node> {
    topology: Csr,
    nodes: Vec<N>,
    /// Messages in flight, each with its delivery round (next round by
    /// default; later under the delay model).
    in_flight: Vec<(u64, Envelope<N::Msg>)>,
    stats: NetStats,
    /// Optional unreliable-link model: each message is independently
    /// dropped at delivery time with this probability.
    loss: Option<(f64, StdRng)>,
    /// Optional asynchrony model: each message is delayed by an extra
    /// uniform 0..=max rounds.
    delay: Option<(u64, StdRng)>,
    /// Optional fault plan driving crashes and partitions (loss/delay
    /// from a plan are installed into the two fields above).
    plan: Option<FaultPlan>,
    /// `crashed[i]` once node `i` has crash-stopped.
    crashed: Vec<bool>,
}

impl<N: Node> Network<N> {
    /// Builds a network; `nodes[i]` runs on topology node `i`.
    pub fn new(topology: Csr, nodes: Vec<N>) -> Self {
        assert_eq!(topology.n(), nodes.len(), "one node per topology vertex");
        let crashed = vec![false; nodes.len()];
        Network {
            topology,
            nodes,
            in_flight: Vec::new(),
            stats: NetStats::default(),
            loss: None,
            delay: None,
            plan: None,
            crashed,
        }
    }

    /// Enables the unreliable-link model: every message is dropped
    /// independently with probability `p` (seeded — reproducible). Dropped
    /// messages still count in [`NetStats::messages`] (the sender paid for
    /// them) and are tallied in [`NetStats::dropped`].
    fn with_loss(mut self, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss = Some((p, StdRng::seed_from_u64(seed)));
        self
    }

    /// Enables bounded asynchrony: each message is independently delayed
    /// by an extra `0..=max_extra` rounds beyond the synchronous one
    /// (seeded — reproducible). `max_extra = 0` is the synchronous model.
    fn with_delay(mut self, max_extra: u64, seed: u64) -> Self {
        self.delay = Some((max_extra, StdRng::seed_from_u64(seed)));
        self
    }

    /// Installs a [`FaultPlan`], the network's only fault-injection path:
    /// its loss and delay are drawn from seeded streams derived from the
    /// plan seed, and its crashes and partitions are consulted every round.
    /// Installing [`FaultPlan::none()`] leaves execution byte-identical to
    /// an unfaulted network.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if plan.loss() > 0.0 {
            self = self.with_loss(plan.loss(), plan.seed());
        }
        if plan.max_delay() > 0 {
            // Decorrelate the delay stream from the loss stream.
            self = self.with_delay(plan.max_delay(), plan.seed() ^ 0x9E37_79B9_7F4A_7C15);
        }
        self.plan = Some(plan);
        self
    }

    /// Immutable access to the node states (for result extraction).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Ids of nodes that have crash-stopped so far, ascending.
    pub fn crashed_nodes(&self) -> Vec<usize> {
        self.crashed
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some(i))
            .collect()
    }

    /// Consumes the network, returning node states and accumulated stats.
    /// Messages still in flight (execution cut off mid-delivery) are
    /// accounted as dropped rather than silently leaked, so
    /// `messages == delivered + dropped` always holds for the caller.
    pub fn into_parts(mut self) -> (Vec<N>, NetStats) {
        self.stats.dropped += self.in_flight.len() as u64;
        self.in_flight.clear();
        (self.nodes, self.stats)
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// `true` iff no messages are in flight and every node has either
    /// terminated its protocol or crash-stopped (a crashed node can never
    /// become done, so it must not block quiescence).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty()
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(i, n)| self.crashed[i] || n.is_done())
    }

    /// Executes one synchronous round: deliver in-flight messages, step all
    /// nodes in id order, collect their outboxes.
    pub fn run_round(&mut self) {
        let round = self.stats.rounds;
        // Crash-stop nodes whose scheduled round has arrived, before any
        // delivery: a node crashing at round r neither steps in round r
        // nor receives the messages due then.
        if let Some(plan) = &self.plan {
            for i in 0..self.nodes.len() {
                if !self.crashed[i] && plan.is_crashed(i, round) {
                    self.crashed[i] = true;
                    self.stats.crashed += 1;
                }
            }
        }
        // Partition in-flight messages into per-node inboxes, sorted by
        // sender for determinism. Crashes, partitions and the loss model
        // all drop at delivery time.
        let mut inboxes: Vec<Vec<Envelope<N::Msg>>> = vec![Vec::new(); self.nodes.len()];
        let mut still_flying = Vec::new();
        for (due, env) in self.in_flight.drain(..) {
            if due > round {
                still_flying.push((due, env));
                continue;
            }
            if self.crashed[env.to]
                || self
                    .plan
                    .as_ref()
                    .is_some_and(|plan| plan.severed(env.from, env.to, round))
            {
                self.stats.dropped += 1;
                continue;
            }
            if let Some((p, rng)) = &mut self.loss {
                if rng.random::<f64>() < *p {
                    self.stats.dropped += 1;
                    continue;
                }
            }
            inboxes[env.to].push(env);
        }
        for ib in &mut inboxes {
            ib.sort_by_key(|e| e.from);
        }
        let mut next_flight = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if self.crashed[i] {
                continue;
            }
            let neighbors: Vec<usize> = self
                .topology
                .neighbors(i)
                .iter()
                .map(|&t| t as usize)
                .collect();
            let mut outbox = Outbox::new(i, neighbors);
            node.step(round, &inboxes[i], &mut outbox);
            let (sent, retransmits) = outbox.take();
            self.stats.retransmits += retransmits;
            for env in sent {
                self.stats.messages += 1;
                self.stats.bytes += env.msg.size_bytes() as u64;
                let extra = match &mut self.delay {
                    Some((max, rng)) if *max > 0 => rng.random_range(0..=*max),
                    _ => 0,
                };
                next_flight.push((round + 1 + extra, env));
            }
        }
        self.in_flight = next_flight;
        self.in_flight.extend(still_flying);
        self.stats.rounds += 1;
    }

    /// Runs rounds until quiescence or `max_rounds`, returning the number of
    /// rounds executed in this call.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> u64 {
        let start = self.stats.rounds;
        while !self.is_quiescent() && self.stats.rounds - start < max_rounds {
            self.run_round();
        }
        self.stats.rounds - start
    }

    /// [`run_until_quiescent`](Self::run_until_quiescent) wrapped in a
    /// `net.run` span, reporting this call's [`NetStats`] delta to `sub`
    /// as `net.*` counters. Execution is bit-identical with or without a
    /// subscriber — the instrumentation only reads the accounting.
    pub fn run_until_quiescent_observed(
        &mut self,
        max_rounds: u64,
        sub: Option<&dyn rfid_obs::Subscriber>,
    ) -> u64 {
        let _span = rfid_obs::span!(sub, "net.run");
        let before = self.stats;
        let ran = self.run_until_quiescent(max_rounds);
        self.stats.delta_since(&before).report_to(sub);
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node floods the maximum id it has heard of; classic leader
    /// election by flooding. Terminates when no new information arrives
    /// for one round after startup. (`pub(super)` so the fault tests can
    /// reuse the same workload.)
    pub(super) struct MaxFlood {
        pub(super) best: u32,
        changed: bool,
        started: bool,
    }

    impl Node for MaxFlood {
        type Msg = u32;

        fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            let mut changed = !self.started;
            self.started = true;
            for env in inbox {
                if env.msg > self.best {
                    self.best = env.msg;
                    changed = true;
                }
            }
            if changed {
                out.broadcast(self.best);
            }
            self.changed = changed;
        }

        fn is_done(&self) -> bool {
            self.started && !self.changed
        }
    }

    pub(super) fn flood_network(topology: Csr) -> Network<MaxFlood> {
        let nodes = (0..topology.n())
            .map(|i| MaxFlood {
                best: i as u32,
                changed: false,
                started: false,
            })
            .collect();
        Network::new(topology, nodes)
    }

    #[test]
    fn flooding_elects_global_max_on_path() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut net = flood_network(g);
        let rounds = net.run_until_quiescent(100);
        assert!(net.is_quiescent());
        for n in net.nodes() {
            assert_eq!(n.best, 4);
        }
        // Diameter 4 path: information needs ≥ 5 rounds (1 to start + 4 hops).
        assert!((5..=10).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let mut net = flood_network(g);
        net.run_until_quiescent(100);
        assert_eq!(net.nodes()[0].best, 1);
        assert_eq!(net.nodes()[1].best, 1);
        assert_eq!(net.nodes()[2].best, 3);
        assert_eq!(net.nodes()[3].best, 3);
    }

    #[test]
    fn stats_accumulate() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut net = flood_network(g);
        net.run_until_quiescent(100);
        let s = net.stats();
        assert!(s.messages > 0);
        assert_eq!(s.bytes, s.messages * 4); // u32 payloads
        assert!(s.rounds > 0);
    }

    #[test]
    fn round_budget_is_respected() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let mut net = flood_network(g);
        let ran = net.run_until_quiescent(1);
        assert_eq!(ran, 1);
        assert!(!net.is_quiescent());
    }

    #[test]
    fn isolated_node_terminates_immediately() {
        let g = Csr::from_edges(1, &[]);
        let mut net = flood_network(g);
        let rounds = net.run_until_quiescent(10);
        assert!(net.is_quiescent());
        assert_eq!(rounds, 2); // start round + quiet round
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::FaultPlan;

    use super::tests::flood_network;

    fn path5() -> Csr {
        Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn none_plan_is_bit_identical_to_unfaulted_run() {
        let mut plain = flood_network(path5());
        plain.run_until_quiescent(100);
        let mut faulted = flood_network(path5()).with_faults(FaultPlan::none());
        faulted.run_until_quiescent(100);
        assert_eq!(plain.stats(), faulted.stats());
        for (a, b) in plain.nodes().iter().zip(faulted.nodes()) {
            assert_eq!(a.best, b.best);
        }
    }

    #[test]
    fn crashed_node_stops_stepping_and_receiving() {
        // Crash the max-id node before it can announce itself: the rest
        // of the path must still quiesce, electing the surviving max.
        let plan = FaultPlan::none().with_crash(4, 0);
        let mut net = flood_network(path5()).with_faults(plan);
        net.run_until_quiescent(100);
        assert!(net.is_quiescent(), "crashed node must not block quiescence");
        assert_eq!(net.crashed_nodes(), vec![4]);
        assert_eq!(net.stats().crashed, 1);
        for n in &net.nodes()[..4] {
            assert_eq!(n.best, 3, "survivors elect the surviving max");
        }
    }

    #[test]
    fn late_crash_drops_pending_deliveries_to_the_dead_node() {
        // Node 4 crashes at round 2: messages already addressed to it
        // get dropped at delivery, and dropped accounting stays exact.
        let plan = FaultPlan::none().with_crash(4, 2);
        let mut net = flood_network(path5()).with_faults(plan);
        net.run_until_quiescent(100);
        assert!(net.is_quiescent());
        let delivered: u64 = net.stats().messages - net.stats().dropped;
        assert!(net.stats().dropped > 0, "the dead node had mail pending");
        assert!(delivered > 0);
    }

    #[test]
    fn partition_blocks_traffic_until_it_heals() {
        // MaxFlood only re-sends on change, so it cannot survive a cut;
        // use a node that stubbornly re-broadcasts for a fixed number of
        // rounds — long enough to outlive the partition window.
        struct Chatty {
            best: u32,
            rounds_left: u32,
        }
        impl Node for Chatty {
            type Msg = u32;
            fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
                for env in inbox {
                    self.best = self.best.max(env.msg);
                }
                if self.rounds_left > 0 {
                    self.rounds_left -= 1;
                    out.broadcast(self.best);
                }
            }
            fn is_done(&self) -> bool {
                self.rounds_left == 0
            }
        }
        let nodes = (0..5)
            .map(|i| Chatty {
                best: i,
                rounds_left: 12,
            })
            .collect();
        let plan = FaultPlan::none().with_partition([0, 1, 2], [3, 4], 0, 5);
        let mut net = Network::new(path5(), nodes).with_faults(plan);
        for _ in 0..4 {
            net.run_round();
        }
        assert!(
            net.nodes()[..3].iter().all(|n| n.best <= 2),
            "no cross-cut information while partitioned"
        );
        net.run_until_quiescent(100);
        assert!(net.is_quiescent());
        for n in net.nodes() {
            assert_eq!(n.best, 4, "partition healed, flood completes");
        }
        assert!(net.stats().dropped > 0, "cut messages are accounted");
    }

    #[test]
    fn permanent_partition_still_quiesces_with_split_results() {
        let plan = FaultPlan::none().with_partition([0, 1, 2], [3, 4], 0, u64::MAX);
        let mut net = flood_network(path5()).with_faults(plan);
        net.run_until_quiescent(200);
        assert!(net.is_quiescent());
        assert!(net.nodes()[..3].iter().all(|n| n.best == 2));
        assert!(net.nodes()[3..].iter().all(|n| n.best == 4));
    }

    #[test]
    fn every_sent_message_is_delivered_or_dropped() {
        struct Receipts {
            received: u64,
            sent: bool,
        }
        impl Node for Receipts {
            type Msg = u32;
            fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
                self.received += inbox.len() as u64;
                if !self.sent {
                    self.sent = true;
                    for _ in 0..40 {
                        out.broadcast(1);
                    }
                }
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let nodes = (0..3)
            .map(|_| Receipts {
                received: 0,
                sent: false,
            })
            .collect();
        let plan = FaultPlan::seeded(11)
            .with_loss(0.4)
            .with_delay(3)
            .with_crash(2, 2)
            .with_partition([0], [1], 4, 6);
        let mut net = Network::new(g, nodes).with_faults(plan);
        // Cut the run short deliberately: into_parts must still account
        // for messages left in flight.
        net.run_until_quiescent(4);
        let received_so_far: u64 = net.nodes().iter().map(|n| n.received).sum();
        let (nodes, stats) = net.into_parts();
        let received: u64 = nodes.iter().map(|n| n.received).sum();
        assert_eq!(received, received_so_far);
        assert_eq!(
            stats.messages,
            received + stats.dropped,
            "no message may leak: sent == delivered + dropped"
        );
    }

    #[test]
    fn identical_plans_replay_identical_executions() {
        let plan = || {
            FaultPlan::seeded(99)
                .with_loss(0.25)
                .with_delay(2)
                .with_crash(3, 4)
                .with_partition([0, 1], [2], 2, 5)
        };
        let run = || {
            let mut net = flood_network(path5()).with_faults(plan());
            net.run_until_quiescent(300);
            let bests: Vec<u32> = net.nodes().iter().map(|n| n.best).collect();
            let (_, stats) = net.into_parts();
            (bests, stats)
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use crate::node::{Node, Outbox};

    /// Node that broadcasts a fixed number of pings and counts receipts.
    struct Pinger {
        to_send: u32,
        received: u32,
    }

    impl Node for Pinger {
        type Msg = u32;
        fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            self.received += inbox.len() as u32;
            if self.to_send > 0 {
                self.to_send -= 1;
                out.broadcast(1);
            }
        }
        fn is_done(&self) -> bool {
            self.to_send == 0
        }
    }

    fn pair_network(loss: Option<(f64, u64)>) -> Network<Pinger> {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let nodes = vec![
            Pinger {
                to_send: 200,
                received: 0,
            },
            Pinger {
                to_send: 0,
                received: 0,
            },
        ];
        let net = Network::new(g, nodes);
        match loss {
            Some((p, seed)) => net.with_loss(p, seed),
            None => net,
        }
    }

    #[test]
    fn no_loss_delivers_everything() {
        let mut net = pair_network(None);
        net.run_until_quiescent(500);
        assert_eq!(net.nodes()[1].received, 200);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let mut net = pair_network(Some((1.0, 0)));
        net.run_until_quiescent(500);
        assert_eq!(net.nodes()[1].received, 0);
        assert_eq!(net.stats().dropped, net.stats().messages);
    }

    #[test]
    fn partial_loss_drops_roughly_p() {
        let mut net = pair_network(Some((0.3, 42)));
        net.run_until_quiescent(500);
        let received = net.nodes()[1].received;
        assert!(
            (100..=180).contains(&received),
            "expected ≈140 of 200 pings, got {received}"
        );
        assert_eq!(net.stats().dropped + received as u64, net.stats().messages);
    }

    #[test]
    fn loss_is_reproducible_per_seed() {
        let run = |seed| {
            let mut net = pair_network(Some((0.5, seed)));
            net.run_until_quiescent(500);
            net.nodes()[1].received
        };
        assert_eq!(run(7), run(7));
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use crate::node::{Node, Outbox};

    /// Sends one burst at round 0; receiver records arrival rounds.
    struct Burst {
        sent: bool,
        arrivals: Vec<u64>,
    }

    impl Node for Burst {
        type Msg = u32;
        fn step(&mut self, round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            for _ in inbox {
                self.arrivals.push(round);
            }
            if !self.sent && out.me() == 0 {
                self.sent = true;
                for _ in 0..50 {
                    out.broadcast(1);
                }
            } else {
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }

    fn burst_pair(delay: Option<(u64, u64)>) -> Network<Burst> {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let nodes = vec![
            Burst {
                sent: false,
                arrivals: vec![],
            },
            Burst {
                sent: false,
                arrivals: vec![],
            },
        ];
        let net = Network::new(g, nodes);
        match delay {
            Some((max, seed)) => net.with_delay(max, seed),
            None => net,
        }
    }

    #[test]
    fn synchronous_delivery_is_next_round() {
        let mut net = burst_pair(None);
        net.run_until_quiescent(20);
        assert_eq!(net.nodes()[1].arrivals.len(), 50);
        assert!(net.nodes()[1].arrivals.iter().all(|&r| r == 1));
    }

    #[test]
    fn delayed_delivery_spreads_but_loses_nothing() {
        let mut net = burst_pair(Some((4, 9)));
        net.run_until_quiescent(50);
        let arrivals = &net.nodes()[1].arrivals;
        assert_eq!(arrivals.len(), 50, "bounded delay must not lose messages");
        assert!(
            arrivals.iter().all(|&r| (1..=5).contains(&r)),
            "{arrivals:?}"
        );
        // with 50 messages and 5 buckets, at least two distinct rounds
        let distinct: std::collections::BTreeSet<u64> = arrivals.iter().copied().collect();
        assert!(distinct.len() >= 2, "delay jitter should spread arrivals");
    }

    #[test]
    fn zero_extra_delay_equals_synchronous() {
        let mut a = burst_pair(None);
        a.run_until_quiescent(20);
        let mut b = burst_pair(Some((0, 1)));
        b.run_until_quiescent(20);
        assert_eq!(a.nodes()[1].arrivals, b.nodes()[1].arrivals);
    }

    #[test]
    fn quiescence_waits_for_delayed_messages() {
        let mut net = burst_pair(Some((4, 3)));
        // after one round, messages may still be in flight
        net.run_round();
        net.run_round();
        let early = net.nodes()[1].arrivals.len();
        net.run_until_quiescent(50);
        assert!(net.is_quiescent());
        assert!(net.nodes()[1].arrivals.len() >= early);
        assert_eq!(net.nodes()[1].arrivals.len(), 50);
    }
}
