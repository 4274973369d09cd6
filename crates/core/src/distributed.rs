//! Algorithm 3 — **distributed** scheduling without location information
//! (paper Section V-B), executed on the `rfid-netsim` message-passing
//! substrate.
//!
//! Every reader runs the same state machine over the interference graph:
//!
//! 1. **Gather** (`2c+2` rounds): incremental flooding of node records
//!    (id, neighbour list, covered-unread-tag list) so each reader learns
//!    its `(2c+2)`-hop neighbourhood `N(v)^{2c+2}`.
//! 2. **Election**: a White reader whose `(singleton weight, id)` is
//!    maximal among the non-eliminated readers it knows becomes a
//!    *coordinator* (head). Because any two readers within `2c+2` hops know
//!    each other after gathering, simultaneous heads are always more than
//!    `2c+2` hops apart — their local solutions cannot interfere.
//! 3. **Local MWFS**: the head runs the same ρ-growth as Algorithm 2
//!    (`Γ_0, Γ_1, …` until `w(Γ_{r+1}) < ρ·w(Γ_r)`, capped at `c`) on its
//!    *local* reconstructed subgraph, then floods
//!    `RESULT(Γ_{r̄}, N^{r̄+1})` with TTL `r̄+1+2c+2` — exactly far enough
//!    that every reader whose ball overlaps the removed region hears it.
//! 4. **Colouring**: a reader in `Γ_{r̄}` turns **Red** (activated), a
//!    reader in `N^{r̄+1} ∖ Γ_{r̄}` turns **Black** (suppressed); every
//!    other recipient deletes the eliminated readers from its knowledge and
//!    re-checks the election condition.
//!
//! Theorem 6: the Red set is a feasible scheduling set with
//! `w(X) ≥ w(OPT)/ρ`.

use crate::arena::{AliveSet, BallScratch};
use crate::exact::MwfsScratch;
use crate::local_greedy::grow_local_mwfs_in;
use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_graph::Csr;
use rfid_model::{Coverage, ReaderId, TagSet};
use rfid_netsim::{Envelope, FaultPlan, NetStats, Network, Node, Outbox, Payload};
use rfid_obs::{counter, span};
use std::collections::{BTreeMap, BTreeSet};

/// One reader's gossiped self-description.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeRecord {
    id: u32,
    neighbors: Vec<u32>,
    /// Unread tags inside this reader's interrogation region at slot start.
    tags: Vec<u32>,
}

/// Protocol messages. `seq` is a per-sender sequence number used by the
/// reliability layer (ack matching and duplicate suppression); it stays 0
/// and unused on reliable links, where no acks are exchanged at all.
#[derive(Debug, Clone)]
enum Msg {
    /// Incremental knowledge flooding during the gather phase.
    Info { seq: u64, records: Vec<NodeRecord> },
    /// A coordinator's announcement.
    Result {
        seq: u64,
        head: u32,
        members: Vec<u32>,
        removed: Vec<u32>,
        ttl: u32,
    },
    /// Reliability layer: confirms receipt of the sender's message `seq`.
    /// Acks themselves are never acked or retransmitted.
    Ack { seq: u64 },
}

impl Msg {
    fn set_seq(&mut self, s: u64) {
        match self {
            Msg::Info { seq, .. } | Msg::Result { seq, .. } | Msg::Ack { seq } => *seq = s,
        }
    }
}

impl Payload for Msg {
    /// The 8-byte sequence header is control overhead below the accounting
    /// granularity; payload volume counts the same fields as the paper's
    /// cost model so reliable and unreliable runs stay comparable.
    fn size_bytes(&self) -> usize {
        match self {
            Msg::Info { records, .. } => records
                .iter()
                .map(|r| 4 + 4 * r.neighbors.len() + 4 * r.tags.len())
                .sum(),
            Msg::Result {
                members, removed, ..
            } => 8 + 4 * members.len() + 4 * removed.len(),
            Msg::Ack { .. } => 8,
        }
    }
}

/// Reader colour per the paper's Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    White,
    Red,
    Black,
}

/// One observable protocol event, for the execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `node` won the election and announced (members, removed sizes).
    HeadElected {
        /// Electing reader.
        node: u32,
        /// Size of the announced Γ.
        members: usize,
        /// Size of the removed ball.
        removed: usize,
    },
    /// `node` turned Red (activated) because of `head`'s announcement.
    ColoredRed {
        /// Affected reader.
        node: u32,
        /// Announcing coordinator.
        head: u32,
    },
    /// `node` turned Black (suppressed) because of `head`'s announcement.
    ColoredBlack {
        /// Affected reader.
        node: u32,
        /// Announcing coordinator.
        head: u32,
    },
    /// Reliability layer: `node` re-sent an unacked message to `to`
    /// (`attempt` counts retransmissions of that message so far).
    Retransmit {
        /// Retransmitting reader.
        node: u32,
        /// Destination neighbour.
        to: u32,
        /// Retransmission attempt number (1-based).
        attempt: u32,
    },
    /// Failure detection: `node` saw no election progress for a full
    /// watchdog window and now suspects `suspect` (its current best head
    /// candidate) of having crashed.
    TimeoutSuspect {
        /// Suspecting reader.
        node: u32,
        /// Reader presumed crashed.
        suspect: u32,
    },
    /// `node` won an election it would have lost to `deposed` had the
    /// latter not been suspected — a re-election after a presumed head
    /// crash.
    ReElected {
        /// Newly elected reader.
        node: u32,
        /// The heavier suspected reader it replaces.
        deposed: u32,
    },
}

/// Retransmission schedule: gap (in rounds) before the next resend of an
/// unacked message, indexed by how many sends have happened so far.
/// The minimum ack round-trip is 2 rounds (deliver, ack back), so the
/// first gap is 2; then exponential backoff and a final 16-round grace
/// before the sender gives up — a message's fate is sealed within
/// `2 + 2 + 4 + 8 + 16 + 16 = 48` rounds of its first send (plus the
/// stretched round-trips under extra delivery delay).
const RETRY_GAPS: [u64; 6] = [2, 2, 4, 8, 16, 16];
/// Retransmissions per message before the sender records a `gave_up`.
const MAX_RETRIES: usize = 5;

/// Reliability-layer configuration, derived from the scheduler's
/// [`FaultPlan`]. When `enabled` is false the agent behaves bit-identically
/// to the original synchronous protocol.
#[derive(Debug, Clone, Copy)]
struct Reliability {
    /// Acks, retransmission, timeouts and failure suspicion on/off.
    enabled: bool,
    /// The network's maximum extra delivery delay, which stretches every
    /// timeout window.
    max_delay: u64,
}

impl Reliability {
    fn off() -> Self {
        Reliability {
            enabled: false,
            max_delay: 0,
        }
    }

    /// Each retransmission gap is stretched by a full worst-case ack
    /// round-trip under extra delivery delay.
    fn gap(&self, attempt: usize) -> u64 {
        RETRY_GAPS[attempt.min(RETRY_GAPS.len() - 1)] + 2 * self.max_delay
    }

    /// Rounds within which a single reliable hop either delivers or the
    /// sender has given up (full backoff schedule + one delivery).
    fn hop_window(&self) -> u64 {
        64 + 16 * self.max_delay
    }

    /// Rounds of total silence after which a gathering reader assumes the
    /// flood has quiesced and proceeds to the election early.
    fn quiet_window(&self) -> u64 {
        24 + 2 * self.max_delay
    }

    /// Rounds without election progress after which a waiting reader
    /// suspects its best head candidate of having crashed.
    fn watchdog_window(&self) -> u64 {
        64 + 4 * self.max_delay
    }
}

/// An unacked message awaiting retransmission.
#[derive(Debug, Clone)]
struct PendingSend {
    to: usize,
    seq: u64,
    msg: Msg,
    /// Retransmissions performed so far.
    attempt: usize,
    /// Round at which the next retransmission (or give-up) is due.
    due: u64,
}

/// The per-reader state machine.
struct ReaderAgent {
    id: u32,
    rho: f64,
    c: u32,
    gather_rounds: u64,
    color: Color,
    /// Everything this reader knows: id → record.
    knowledge: BTreeMap<u32, NodeRecord>,
    /// Records to flood next round (first learned last round).
    fresh: Vec<NodeRecord>,
    /// Readers known to be Red/Black somewhere.
    eliminated: BTreeSet<u32>,
    /// Result announcements already forwarded (by head id).
    forwarded: BTreeSet<u32>,
    /// Observable events with their round, for the execution trace.
    events: Vec<(u64, TraceEvent)>,
    // --- Reliability layer (inert unless `rel.enabled`) ------------------
    rel: Reliability,
    /// Next per-sender sequence number.
    next_seq: u64,
    /// Unacked sends awaiting retransmission.
    pending: Vec<PendingSend>,
    /// `(sender, seq)` pairs already processed (duplicate suppression).
    seen: BTreeSet<(usize, u64)>,
    /// Readers this agent suspects of having crashed; excluded from the
    /// election and from local solutions, exactly like eliminated readers.
    suspected: BTreeSet<u32>,
    /// Messages abandoned after exhausting every retransmission.
    gave_up: u64,
    /// Last round in which any message arrived (gather quiescence detector).
    last_msg_round: u64,
    /// Last round with election progress (new knowledge, a result applied,
    /// or a suspicion recorded) — the watchdog's baseline.
    last_progress: u64,
    /// Round at which this agent first considered its gather complete.
    gather_done_at: Option<u64>,
}

impl ReaderAgent {
    fn new(record: NodeRecord, rho: f64, c: u32, rel: Reliability) -> Self {
        let gather_rounds = (2 * c + 2) as u64;
        ReaderAgent {
            id: record.id,
            rho,
            c,
            gather_rounds,
            color: Color::White,
            knowledge: BTreeMap::from([(record.id, record.clone())]),
            fresh: vec![record],
            eliminated: BTreeSet::new(),
            forwarded: BTreeSet::new(),
            events: Vec::new(),
            rel,
            next_seq: 1,
            pending: Vec::new(),
            seen: BTreeSet::new(),
            suspected: BTreeSet::new(),
            gave_up: 0,
            last_msg_round: 0,
            last_progress: 0,
            gather_done_at: None,
        }
    }

    fn singleton_weight(&self, id: u32) -> usize {
        self.knowledge.get(&id).map_or(0, |r| r.tags.len())
    }

    /// `true` iff `u` no longer competes in elections: it is eliminated
    /// (coloured somewhere) or suspected of having crashed.
    fn retired(&self, u: u32) -> bool {
        self.eliminated.contains(&u) || self.suspected.contains(&u)
    }

    /// The election predicate: strictly maximal `(weight, id)` among known,
    /// non-retired readers. Strict total order (ids unique) means two
    /// mutually-known readers can never both win.
    fn is_local_max(&self) -> bool {
        let mine = (self.singleton_weight(self.id), self.id);
        self.knowledge
            .keys()
            .filter(|&&u| u != self.id && !self.retired(u))
            .all(|&u| (self.singleton_weight(u), u) < mine)
    }

    /// The known, non-retired reader with the maximal `(weight, id)` other
    /// than this one — the candidate whose announcement this reader is
    /// waiting for, and therefore the one to suspect on timeout.
    fn blocking_candidate(&self) -> Option<u32> {
        self.knowledge
            .keys()
            .filter(|&&u| u != self.id && !self.retired(u))
            .max_by_key(|&&u| (self.singleton_weight(u), u))
            .copied()
    }

    /// Reconstructs the local alive subgraph and runs the ρ-growth on it.
    /// Returns `(Γ_{r̄}, removed ball N^{r̄+1})` in global ids.
    ///
    /// A zero-weight head (no unread tag anywhere in its view — possible
    /// only when every reader it knows is equally empty) activates nobody
    /// but still retires its neighbourhood so the protocol terminates.
    fn compute_local_solution(&self) -> (Vec<u32>, Vec<u32>) {
        // Local relabelling of alive (non-eliminated) known readers.
        let alive_ids: Vec<u32> = self
            .knowledge
            .keys()
            .copied()
            .filter(|&u| !self.retired(u))
            .collect();
        let local_of: BTreeMap<u32, usize> =
            alive_ids.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        let mut edges = Vec::new();
        let mut tag_local: BTreeMap<u32, usize> = BTreeMap::new();
        for &g in &alive_ids {
            let rec = &self.knowledge[&g];
            for &nb in &rec.neighbors {
                if let Some(&lnb) = local_of.get(&nb) {
                    let l = local_of[&g];
                    if l < lnb {
                        edges.push((l, lnb));
                    }
                }
            }
            for &t in &rec.tags {
                let next = tag_local.len();
                tag_local.entry(t).or_insert(next);
            }
        }
        let graph = Csr::from_edges(alive_ids.len(), &edges);
        let mut tag_readers = vec![Vec::new(); tag_local.len()];
        for &g in &alive_ids {
            for &t in &self.knowledge[&g].tags {
                tag_readers[tag_local[&t]].push(local_of[&g] as u32);
            }
        }
        let coverage = Coverage::from_lists(alive_ids.len(), tag_readers);
        // Every gathered tag was unread at slot start, so a reader's
        // singleton weight in the view is the length of its tag list.
        let unread = TagSet::all_unread(tag_local.len());
        let singleton: Vec<usize> = alive_ids
            .iter()
            .map(|&g| self.singleton_weight(g))
            .collect();
        let alive = AliveSet::all_alive(alive_ids.len());
        let me = local_of[&self.id];
        // The same growth call as Algorithm 2, on the local view.
        let mut mwfs = MwfsScratch::new(&coverage, &unread);
        let mut balls = BallScratch::new(alive_ids.len());
        let (mut removed_local, mut gamma, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let (r, ball_is_dead_ball) = grow_local_mwfs_in(
            &mut mwfs,
            &mut balls,
            &mut removed_local,
            &mut gamma,
            &mut next,
            &coverage,
            &graph,
            &unread,
            &singleton,
            me,
            &alive,
            self.rho,
            self.c,
        );
        // Removed ball N^{r̄+1}(me) over the alive local graph, unless the
        // growth loop's last probe already computed it.
        if !ball_is_dead_ball {
            balls.ball_into(&graph, me, r + 1, &alive, &mut removed_local);
        }
        let members: Vec<u32> = if singleton[me] == 0 {
            Vec::new()
        } else {
            gamma.iter().map(|&l| alive_ids[l]).collect()
        };
        let removed: Vec<u32> = removed_local.iter().map(|&l| alive_ids[l]).collect();
        (members, removed)
    }

    fn apply_result(&mut self, round: u64, head: u32, members: &[u32], removed: &[u32]) {
        for &u in members.iter().chain(removed.iter()) {
            self.eliminated.insert(u);
        }
        if members.contains(&self.id) && self.color == Color::White {
            self.color = Color::Red;
            self.events.push((
                round,
                TraceEvent::ColoredRed {
                    node: self.id,
                    head,
                },
            ));
        } else if removed.contains(&self.id) && self.color == Color::White {
            self.color = Color::Black;
            self.events.push((
                round,
                TraceEvent::ColoredBlack {
                    node: self.id,
                    head,
                },
            ));
        }
    }

    /// Builds, applies and returns this head's announcement.
    fn announce(&mut self, round: u64) -> Msg {
        // A win that only happened because a heavier reader is suspected
        // is a re-election; record whom this head replaces.
        let mine = (self.singleton_weight(self.id), self.id);
        let deposed = self
            .suspected
            .iter()
            .filter(|&&u| !self.eliminated.contains(&u))
            .filter(|&&u| (self.singleton_weight(u), u) > mine)
            .max_by_key(|&&u| (self.singleton_weight(u), u))
            .copied();
        if let Some(deposed) = deposed {
            self.events.push((
                round,
                TraceEvent::ReElected {
                    node: self.id,
                    deposed,
                },
            ));
        }
        let (members, removed) = self.compute_local_solution();
        let r_bar_plus_1 = self.c + 1; // conservative: r̄ ≤ c
        let ttl = r_bar_plus_1 + 2 * self.c + 2;
        self.events.push((
            round,
            TraceEvent::HeadElected {
                node: self.id,
                members: members.len(),
                removed: removed.len(),
            },
        ));
        self.apply_result(round, self.id, &members, &removed);
        debug_assert!(self.color != Color::White, "head must colour itself");
        self.forwarded.insert(self.id);
        Msg::Result {
            seq: 0,
            head: self.id,
            members,
            removed,
            ttl,
        }
    }

    /// Broadcasts `msg` to every neighbour; on reliable links this is the
    /// plain flood, otherwise each copy is tracked for ack-based
    /// retransmission with exponential backoff.
    fn flood(&mut self, round: u64, out: &mut Outbox<Msg>, mut msg: Msg) {
        if !self.rel.enabled {
            out.broadcast(msg);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        msg.set_seq(seq);
        let neighbors: Vec<usize> = out.neighbors().to_vec();
        for to in neighbors {
            out.send(to, msg.clone());
            self.pending.push(PendingSend {
                to,
                seq,
                msg: msg.clone(),
                attempt: 0,
                due: round + self.rel.gap(0),
            });
        }
    }

    /// Retransmits every overdue unacked message, abandoning those that
    /// exhausted their retries.
    fn sweep_retransmits(&mut self, round: u64, out: &mut Outbox<Msg>) {
        if self.pending.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due > round {
                i += 1;
                continue;
            }
            if self.pending[i].attempt >= MAX_RETRIES {
                self.gave_up += 1;
                self.pending.remove(i);
                continue;
            }
            let gap = self.rel.gap(self.pending[i].attempt + 1);
            let p = &mut self.pending[i];
            p.attempt += 1;
            p.due = round + gap;
            out.send(p.to, p.msg.clone());
            out.note_retransmit();
            self.events.push((
                round,
                TraceEvent::Retransmit {
                    node: self.id,
                    to: p.to as u32,
                    attempt: p.attempt as u32,
                },
            ));
            i += 1;
        }
    }

    /// Whether this reader considers its gather phase over and may move on
    /// to the election. Without the reliability layer this is the paper's
    /// fixed `2c+2` rounds; with it, the reader waits for either a hard
    /// deadline (every hop's retransmission fate sealed) or an adaptive
    /// quiet period with nothing left in flight.
    fn gather_complete(&self, round: u64) -> bool {
        if !self.rel.enabled {
            return round >= self.gather_rounds;
        }
        if round < self.gather_rounds {
            return false;
        }
        if round >= self.gather_rounds * self.rel.hop_window() {
            return true;
        }
        self.fresh.is_empty()
            && self.pending.is_empty()
            && round.saturating_sub(self.last_msg_round) >= self.rel.quiet_window()
    }
}

impl Node for ReaderAgent {
    type Msg = Msg;

    fn step(&mut self, round: u64, inbox: &[Envelope<Msg>], out: &mut Outbox<Msg>) {
        // --- Ingest ------------------------------------------------------
        if !inbox.is_empty() {
            self.last_msg_round = round;
        }
        let mut results_to_forward: Vec<Msg> = Vec::new();
        for env in inbox {
            match &env.msg {
                Msg::Ack { seq } => {
                    self.pending
                        .retain(|p| !(p.to == env.from && p.seq == *seq));
                }
                Msg::Info { seq, records } => {
                    if self.rel.enabled {
                        out.send(env.from, Msg::Ack { seq: *seq });
                        if !self.seen.insert((env.from, *seq)) {
                            continue; // duplicate delivery (ack was lost)
                        }
                    }
                    for rec in records {
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            self.knowledge.entry(rec.id)
                        {
                            e.insert(rec.clone());
                            self.fresh.push(rec.clone());
                            self.last_progress = round;
                        }
                    }
                }
                Msg::Result {
                    seq,
                    head,
                    members,
                    removed,
                    ttl,
                } => {
                    if self.rel.enabled {
                        out.send(env.from, Msg::Ack { seq: *seq });
                        if !self.seen.insert((env.from, *seq)) {
                            continue;
                        }
                    }
                    if self.forwarded.insert(*head) {
                        self.apply_result(round, *head, members, removed);
                        self.last_progress = round;
                        if *ttl > 1 {
                            results_to_forward.push(Msg::Result {
                                seq: 0,
                                head: *head,
                                members: members.clone(),
                                removed: removed.clone(),
                                ttl: ttl - 1,
                            });
                        }
                    }
                }
            }
        }
        // --- Relay results (all colours relay; the radio still works) ----
        for msg in results_to_forward {
            self.flood(round, out, msg);
        }
        // --- Reliability: retransmit overdue unacked messages ------------
        self.sweep_retransmits(round, out);
        // --- Gather phase: flood fresh records ---------------------------
        if !self.gather_complete(round) {
            if !self.fresh.is_empty() {
                let batch = std::mem::take(&mut self.fresh);
                self.flood(
                    round,
                    out,
                    Msg::Info {
                        seq: 0,
                        records: batch,
                    },
                );
            }
            return;
        }
        if self.gather_done_at.is_none() {
            self.gather_done_at = Some(round);
        }
        self.fresh.clear();
        // --- Failure detection: a head that never announces is presumed
        // crashed after a full watchdog window without progress, clearing
        // the way for a re-election among the survivors.
        if self.rel.enabled && self.color == Color::White && !self.is_local_max() {
            let base = self.last_progress.max(self.gather_done_at.unwrap_or(0));
            if round.saturating_sub(base) >= self.rel.watchdog_window() {
                if let Some(suspect) = self.blocking_candidate() {
                    self.suspected.insert(suspect);
                    self.events.push((
                        round,
                        TraceEvent::TimeoutSuspect {
                            node: self.id,
                            suspect,
                        },
                    ));
                    self.last_progress = round;
                }
            }
        }
        // --- Election + announcement -------------------------------------
        if self.color == Color::White && self.is_local_max() {
            let msg = self.announce(round);
            self.flood(round, out, msg);
        }
    }

    fn is_done(&self) -> bool {
        self.color != Color::White && self.pending.is_empty()
    }
}

/// Outcome digest of one distributed run under faults — what the chaos
/// harness and the robustness ablation key their assertions on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Every surviving reader reached a terminal colour.
    pub completed: bool,
    /// The network was quiescent when the round budget ended.
    pub quiescent: bool,
    /// Readers still alive at the end of the run.
    pub survivors: usize,
    /// Readers that crash-stopped during the run.
    pub crashed: usize,
    /// Messages abandoned after exhausting every retransmission.
    pub gave_up: u64,
    /// Crash suspicions raised by watchdog timeouts (may include false
    /// positives; those only cost schedule weight, never feasibility).
    pub suspected: u64,
    /// Readers deactivated by the carrier-sense repair pass.
    pub repaired: usize,
}

/// Algorithm 3 packaged as a [`OneShotScheduler`].
///
/// The simulation statistics of the most recent run (rounds, messages,
/// bytes) are kept in [`last_stats`](Self::last_stats) for the
/// communication-cost ablation.
#[derive(Debug, Clone, Default)]
pub struct DistributedScheduler {
    /// Growth threshold ρ; `None` → 1.1 (matching [`crate::LocalGreedy`]).
    pub rho: Option<f64>,
    /// Growth cap `c`; `None` → 3.
    pub c: Option<u32>,
    /// Fault injection: message loss, bounded delay, crash-stop readers
    /// and transient partitions. A plan that can lose messages also arms
    /// the reliability layer (acks, retransmission, timeout-driven phase
    /// progression, head re-election). Under delay or loss the gathered
    /// neighbourhoods may be incomplete; the carrier-sense repair (below)
    /// keeps the output feasible. `Some(FaultPlan::none())` behaves
    /// bit-identically to `None`.
    pub fault_plan: Option<FaultPlan>,
    /// Stats of the last `schedule` call.
    pub last_stats: Option<NetStats>,
    /// Execution trace of the last `schedule` call: `(round, event)`,
    /// sorted by round then node.
    pub last_trace: Option<Vec<(u64, TraceEvent)>>,
    /// Outcome digest of the last `schedule` call.
    pub last_summary: Option<RunSummary>,
    /// Readers that crash-stopped during the last `schedule` call,
    /// ascending.
    pub last_crashed: Vec<ReaderId>,
}

impl DistributedScheduler {
    /// Creates a scheduler with explicit parameters.
    pub fn with_params(rho: f64, c: u32) -> Self {
        DistributedScheduler {
            rho: Some(rho),
            c: Some(c),
            ..Default::default()
        }
    }

    /// Runs the protocol under `plan`, with the reliability layer armed
    /// iff the plan can lose messages.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl OneShotScheduler for DistributedScheduler {
    fn comm_stats(&self) -> Option<NetStats> {
        self.last_stats
    }

    fn crashed_readers(&self) -> Vec<ReaderId> {
        self.last_crashed.clone()
    }

    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        let sub = input.subscriber;
        let _span = span!(sub, "alg3.schedule");
        let rho = self.rho.unwrap_or(1.1);
        let c = self.c.unwrap_or(3);
        assert!(rho > 1.0, "ρ must exceed 1");
        let n = input.deployment.n_readers();
        if n == 0 {
            self.last_stats = Some(NetStats::default());
            self.last_summary = Some(RunSummary {
                completed: true,
                quiescent: true,
                ..Default::default()
            });
            return Vec::new();
        }
        // The reliability layer costs acks and retransmissions, so it is
        // armed only when the fault plan can actually lose messages; a
        // delay-only or empty plan keeps the original lock-step protocol.
        let rel = match &self.fault_plan {
            Some(plan) if plan.can_lose_messages() => Reliability {
                enabled: true,
                max_delay: plan.max_delay(),
            },
            _ => Reliability::off(),
        };
        // Each reader's initial record: direct neighbours + its unread tags.
        let agents: Vec<ReaderAgent> = (0..n)
            .map(|v| {
                let tags: Vec<u32> = input
                    .coverage
                    .tags_of(v)
                    .iter()
                    .copied()
                    .filter(|&t| input.unread.is_unread(t as usize))
                    .collect();
                let record = NodeRecord {
                    id: v as u32,
                    neighbors: input.graph.neighbors(v).to_vec(),
                    tags,
                };
                ReaderAgent::new(record, rho, c, rel)
            })
            .collect();
        let mut net = Network::new(input.graph.clone(), agents);
        if let Some(plan) = &self.fault_plan {
            net = net.with_faults(plan.clone());
        }
        // Generous round budget: gather + (heads are elected at least every
        // O(TTL) rounds and at least one reader is eliminated per head).
        // With the reliability layer armed, every phase stretches by the
        // hop window (retransmission backoff) and each of the at-most-n
        // serial re-elections may burn a full watchdog window first; this
        // budget is the documented quiescence bound for chaos runs.
        let budget = if rel.enabled {
            (2 * c as u64 + 2) * rel.hop_window()
                + (n as u64 + 1) * (rel.watchdog_window() + 3 * c as u64 + 5)
                + 64
        } else {
            let max_delay = self.fault_plan.as_ref().map_or(0, |p| p.max_delay());
            ((2 * c as u64 + 2) + (n as u64 + 1) * (3 * c as u64 + 5) + 16) * (1 + max_delay)
        };
        net.run_until_quiescent_observed(budget, sub);
        let faulty = self.fault_plan.as_ref().is_some_and(|p| !p.is_none());
        assert!(
            faulty || net.is_quiescent(),
            "distributed protocol failed to converge within {budget} rounds"
        );
        let quiescent = net.is_quiescent();
        let net_crashed: BTreeSet<usize> = net.crashed_nodes().into_iter().collect();
        let (agents, stats) = net.into_parts();
        self.last_stats = Some(stats);
        let mut trace: Vec<(u64, TraceEvent)> = agents
            .iter()
            .flat_map(|a| a.events.iter().cloned())
            .collect();
        trace.sort_by_key(|(round, e)| {
            let node = match e {
                TraceEvent::HeadElected { node, .. }
                | TraceEvent::ColoredRed { node, .. }
                | TraceEvent::ColoredBlack { node, .. }
                | TraceEvent::Retransmit { node, .. }
                | TraceEvent::TimeoutSuspect { node, .. }
                | TraceEvent::ReElected { node, .. } => *node,
            };
            (*round, node)
        });
        if rfid_obs::active(sub).is_some() {
            for (_, e) in &trace {
                let name = match e {
                    TraceEvent::HeadElected { .. } => "alg3.head_elected",
                    TraceEvent::ColoredRed { .. } => "alg3.colored_red",
                    TraceEvent::ColoredBlack { .. } => "alg3.colored_black",
                    TraceEvent::Retransmit { .. } => "alg3.retransmit",
                    TraceEvent::TimeoutSuspect { .. } => "alg3.timeout_suspect",
                    TraceEvent::ReElected { .. } => "alg3.re_elected",
                };
                counter!(sub, name);
            }
        }
        self.last_trace = Some(trace);
        // A reader that actually went dark during the protocol cannot
        // transmit: exclude it from the activation even if it was Red
        // before crashing. (A crash scheduled beyond convergence never
        // fired and changes nothing.)
        let is_dead = |a: &ReaderAgent| net_crashed.contains(&(a.id as usize));
        let mut x: Vec<ReaderId> = agents
            .iter()
            .filter(|a| a.color == Color::Red && !is_dead(a))
            .map(|a| a.id as ReaderId)
            .collect();
        x.sort_unstable();
        // Carrier-sense activation repair. On reliable links this is a
        // no-op (the protocol's invariants make the Red set independent);
        // with lossy links two Red readers may be mutually unaware, and a
        // real reader would detect the jam at power-up: the lighter-weight
        // endpoint defers (turns itself off for this slot).
        let singleton = input.singleton_weights();
        let mut repaired = 0usize;
        loop {
            let mut drop: Option<ReaderId> = None;
            'scan: for (i, &a) in x.iter().enumerate() {
                for &b in &x[i + 1..] {
                    if input.graph.has_edge(a, b) {
                        drop = Some(if singleton[a] <= singleton[b] { a } else { b });
                        break 'scan;
                    }
                }
            }
            match drop {
                Some(v) => {
                    debug_assert!(faulty, "repair must be a no-op on reliable links");
                    x.retain(|&u| u != v);
                    repaired += 1;
                }
                None => break,
            }
        }
        let mut dead: Vec<ReaderId> = agents
            .iter()
            .filter(|a| is_dead(a))
            .map(|a| a.id as ReaderId)
            .collect();
        dead.sort_unstable();
        let crashed_count = dead.len();
        self.last_crashed = dead;
        self.last_summary = Some(RunSummary {
            completed: agents
                .iter()
                .filter(|a| !is_dead(a))
                .all(|a| a.color != Color::White),
            quiescent,
            survivors: n - crashed_count,
            crashed: crashed_count,
            gave_up: agents.iter().map(|a| a.gave_up).sum(),
            suspected: agents.iter().map(|a| a.suspected.len() as u64).sum(),
            repaired,
        });
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{singleton_weight, Coverage, RadiusModel};

    fn paper_like(n_readers: usize, seed: u64) -> rfid_model::Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers,
            n_tags: 300,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn converges_and_is_feasible() {
        for seed in 0..6 {
            let d = paper_like(40, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let mut s = DistributedScheduler::default();
            let set = s.schedule(&input);
            assert!(d.is_feasible(&set), "seed {seed}: {set:?}");
            assert!(!set.is_empty(), "seed {seed}");
            let stats = s.last_stats.unwrap();
            assert!(stats.messages > 0);
        }
    }

    #[test]
    fn is_deterministic() {
        let d = paper_like(30, 9);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let a = DistributedScheduler::default().schedule_twice(&input);
        assert_eq!(a.0, a.1);
    }

    impl DistributedScheduler {
        fn schedule_twice(mut self, input: &OneShotInput<'_>) -> (Vec<usize>, Vec<usize>) {
            let x = self.schedule(input);
            let y = self.schedule(input);
            (x, y)
        }
    }

    #[test]
    fn matches_centralized_on_disconnected_singletons() {
        // No interference at all: every reader is its own head and the
        // answer is every reader with positive weight.
        let d = Scenario {
            kind: ScenarioKind::LatticeReaders,
            n_readers: 9,
            n_tags: 50,
            region_side: 90.0,
            radius_model: RadiusModel::Fixed {
                interference: 4.0,
                interrogation: 4.0,
            },
        }
        .generate(0);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        assert_eq!(g.m(), 0, "lattice spacing 30 ≫ interference 4");
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let dist = DistributedScheduler::default().schedule(&input);
        let expect: Vec<usize> = (0..9)
            .filter(|&v| singleton_weight(&c, v, &unread) > 0)
            .collect();
        assert_eq!(dist, expect);
    }

    #[test]
    fn respects_theorem6_bound_against_exact() {
        for seed in 0..4 {
            let d = paper_like(13, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let rho = 1.25;
            let set = DistributedScheduler::with_params(rho, 4).schedule(&input);
            let opt = crate::exact::ExactScheduler::default().schedule(&input);
            let w_set = input.weight_of(&set) as f64;
            let w_opt = input.weight_of(&opt) as f64;
            assert!(
                w_set + 1e-9 >= w_opt / rho,
                "seed {seed}: w = {w_set} < {w_opt}/ρ"
            );
        }
    }

    #[test]
    fn message_cost_grows_with_c() {
        let d = paper_like(35, 2);
        let cov = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &cov, &g, &unread);
        let mut small = DistributedScheduler::with_params(1.25, 1);
        let mut big = DistributedScheduler::with_params(1.25, 4);
        small.schedule(&input);
        big.schedule(&input);
        // The gather phase alone takes 2c+2 rounds, so a larger c always
        // costs more rounds; byte volume saturates once the knowledge flood
        // covers the component, so rounds are the stable monotone metric.
        assert!(
            big.last_stats.unwrap().rounds > small.last_stats.unwrap().rounds,
            "larger c must run more rounds"
        );
    }

    #[test]
    fn empty_deployment() {
        let d = rfid_model::Deployment::new(
            rfid_geometry::Rect::square(1.0),
            vec![],
            vec![],
            vec![],
            vec![],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(0);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        assert!(DistributedScheduler::default().schedule(&input).is_empty());
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel};

    fn setup(seed: u64) -> (rfid_model::Deployment, Coverage, Csr) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 400,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        (d, c, g)
    }

    #[test]
    fn output_is_feasible_under_any_loss_rate() {
        for &p in &[0.05, 0.2, 0.5, 0.9] {
            for seed in 0..3u64 {
                let (d, c, g) = setup(seed);
                let unread = TagSet::all_unread(d.n_tags());
                let input = OneShotInput::new(&d, &c, &g, &unread);
                let set = DistributedScheduler::default()
                    .with_faults(FaultPlan::seeded(seed).with_loss(p))
                    .schedule(&input);
                assert!(d.is_feasible(&set), "p={p} seed={seed}: {set:?}");
            }
        }
    }

    #[test]
    fn zero_loss_matches_reliable_run() {
        let (d, c, g) = setup(0);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let reliable = DistributedScheduler::default().schedule(&input);
        let zero_loss = DistributedScheduler::default()
            .with_faults(FaultPlan::seeded(1).with_loss(0.0))
            .schedule(&input);
        assert_eq!(reliable, zero_loss);
    }

    #[test]
    fn drops_are_accounted() {
        let (d, c, g) = setup(1);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut s =
            DistributedScheduler::default().with_faults(FaultPlan::seeded(7).with_loss(0.3));
        s.schedule(&input);
        let stats = s.last_stats.unwrap();
        assert!(stats.dropped > 0);
        assert!(stats.dropped < stats.messages);
    }

    #[test]
    fn weight_degrades_gracefully_not_catastrophically() {
        // Mean over seeds: 20% loss should keep most of the weight.
        let mut clean = 0usize;
        let mut lossy = 0usize;
        for seed in 0..5u64 {
            let (d, c, g) = setup(seed);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            clean += input.weight_of(&DistributedScheduler::default().schedule(&input));
            lossy += input.weight_of(
                &DistributedScheduler::default()
                    .with_faults(FaultPlan::seeded(seed).with_loss(0.2))
                    .schedule(&input),
            );
        }
        assert!(
            lossy * 2 >= clean,
            "20% loss should retain ≥ half the weight ({lossy} vs {clean})"
        );
    }
}

#[cfg(test)]
mod trace_and_crash_tests {
    use super::*;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel};

    fn setup(seed: u64) -> (rfid_model::Deployment, Coverage, Csr) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 400,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        (d, c, g)
    }

    #[test]
    fn trace_is_complete_and_consistent() {
        let (d, c, g) = setup(0);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut s = DistributedScheduler::default();
        let set = s.schedule(&input);
        let trace = s.last_trace.clone().unwrap();
        assert!(!trace.is_empty());
        // Every activated reader has exactly one ColoredRed event.
        let red_events: Vec<u32> = trace
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::ColoredRed { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        let mut red_sorted: Vec<usize> = red_events.iter().map(|&n| n as usize).collect();
        red_sorted.sort_unstable();
        assert_eq!(red_sorted, set);
        // Heads announce non-empty removals and rounds are ordered.
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        let heads = trace
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::HeadElected { .. }))
            .count();
        assert!(heads >= 1);
        // Head elections happen only after the gather phase (2c+2 = 8).
        for (round, e) in &trace {
            if matches!(e, TraceEvent::HeadElected { .. }) {
                assert!(*round >= 8, "head elected during gather at round {round}");
            }
        }
    }

    #[test]
    fn crashed_readers_never_activate() {
        let (d, c, g) = setup(1);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // Crash the globally heaviest reader before it can announce.
        let heaviest = (0..d.n_readers())
            .max_by_key(|&v| rfid_model::singleton_weight(&c, v, &unread))
            .unwrap();
        let mut s = DistributedScheduler::default()
            .with_faults(FaultPlan::seeded(0).with_crash(heaviest, 0));
        let set = s.schedule(&input);
        assert!(!set.contains(&heaviest));
        assert!(d.is_feasible(&set));
    }

    #[test]
    fn late_crash_changes_little() {
        let (d, c, g) = setup(2);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let clean = DistributedScheduler::default().schedule(&input);
        // A crash far beyond convergence never fires.
        let mut s =
            DistributedScheduler::default().with_faults(FaultPlan::seeded(0).with_crash(0, 10_000));
        let with_late_crash = s.schedule(&input);
        assert_eq!(clean, with_late_crash);
    }

    #[test]
    fn mass_crash_still_yields_feasible_output() {
        let (d, c, g) = setup(3);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // A third of the fleet dies mid-gather.
        let plan = (0..10).fold(FaultPlan::seeded(0), |plan, v| plan.with_crash(v, 3));
        let mut s = DistributedScheduler::default().with_faults(plan);
        let set = s.schedule(&input);
        assert!(d.is_feasible(&set));
        for v in 0..10 {
            assert!(!set.contains(&v), "crashed reader {v} activated");
        }
    }
}

#[cfg(test)]
mod fault_plan_tests {
    use super::*;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel};

    // Denser than the other modules' setup (smaller region) so crash and
    // partition faults actually hit connected neighbourhoods.
    fn setup(seed: u64) -> (rfid_model::Deployment, Coverage, Csr) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 400,
            region_side: 60.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        (d, c, g)
    }

    #[test]
    fn none_plan_is_bit_identical_to_no_plan() {
        let (d, c, g) = setup(0);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut unplanned = DistributedScheduler::default();
        let mut planned = DistributedScheduler::default().with_faults(FaultPlan::none());
        let x = unplanned.schedule(&input);
        let y = planned.schedule(&input);
        assert_eq!(x, y);
        assert_eq!(unplanned.last_stats, planned.last_stats);
        assert_eq!(unplanned.last_trace, planned.last_trace);
        let summary = planned.last_summary.unwrap();
        assert!(summary.completed && summary.quiescent);
        assert_eq!(summary.crashed, 0);
        assert_eq!(summary.gave_up, 0);
        assert_eq!(summary.suspected, 0);
        assert_eq!(summary.repaired, 0);
    }

    #[test]
    fn retransmissions_recover_from_loss() {
        let (d, c, g) = setup(1);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut s =
            DistributedScheduler::default().with_faults(FaultPlan::seeded(11).with_loss(0.3));
        let set = s.schedule(&input);
        assert!(d.is_feasible(&set), "{set:?}");
        let stats = s.last_stats.unwrap();
        assert!(stats.retransmits > 0, "loss must trigger retransmissions");
        let summary = s.last_summary.unwrap();
        assert!(summary.completed, "{summary:?}");
        assert!(summary.quiescent, "{summary:?}");
        assert_eq!(summary.survivors, 30);
    }

    #[test]
    fn reliability_recovers_most_of_the_weight_under_loss() {
        // Without acks, lost knowledge floods would stay truncated; the
        // reliability layer should claw most weight back.
        let mut clean = 0usize;
        let mut reliable = 0usize;
        for seed in 0..4u64 {
            let (d, c, g) = setup(seed);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            clean += input.weight_of(&DistributedScheduler::default().schedule(&input));
            let mut s =
                DistributedScheduler::default().with_faults(FaultPlan::seeded(seed).with_loss(0.2));
            reliable += input.weight_of(&s.schedule(&input));
        }
        assert!(
            reliable * 10 >= clean * 8,
            "20% loss with retransmission should retain ≥ 80% of the weight \
             ({reliable} vs {clean})"
        );
    }

    #[test]
    fn head_crash_triggers_reelection() {
        let (d, c, g) = setup(2);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // Crash the heaviest *non-isolated* reader right after gather
        // begins: its neighbourhood waits for it, hears nothing, and must
        // suspect it to re-elect. (An isolated reader blocks nobody, so
        // crashing one would never exercise the watchdog.)
        let heaviest = (0..d.n_readers())
            .filter(|&v| !g.neighbors(v).is_empty())
            .max_by_key(|&v| (rfid_model::singleton_weight(&c, v, &unread), v))
            .unwrap();
        let mut s = DistributedScheduler::default()
            .with_faults(FaultPlan::seeded(3).with_crash(heaviest, 1));
        let set = s.schedule(&input);
        assert!(d.is_feasible(&set), "{set:?}");
        assert!(!set.contains(&heaviest), "crashed reader activated");
        let summary = s.last_summary.unwrap();
        assert_eq!(summary.crashed, 1);
        assert_eq!(summary.survivors, 29);
        assert!(summary.completed, "{summary:?}");
        assert!(summary.suspected > 0, "watchdog never fired");
        let trace = s.last_trace.unwrap();
        let suspected_heaviest = trace.iter().any(|(_, e)| {
            matches!(e, TraceEvent::TimeoutSuspect { suspect, .. }
                     if *suspect == heaviest as u32)
        });
        assert!(suspected_heaviest, "nobody suspected the dead head");
        let reelected = trace.iter().any(|(_, e)| {
            matches!(e, TraceEvent::ReElected { deposed, .. }
                     if *deposed == heaviest as u32)
        });
        assert!(reelected, "no re-election replaced the dead head");
    }

    #[test]
    fn identical_plans_replay_identical_runs() {
        let (d, c, g) = setup(3);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let plan = FaultPlan::seeded(42)
            .with_loss(0.25)
            .with_delay(2)
            .with_crash(5, 20);
        let mut a = DistributedScheduler::default().with_faults(plan.clone());
        let mut b = DistributedScheduler::default().with_faults(plan);
        let x = a.schedule(&input);
        let y = b.schedule(&input);
        assert_eq!(x, y);
        assert_eq!(a.last_stats, b.last_stats);
        assert_eq!(a.last_trace, b.last_trace);
        assert_eq!(a.last_summary, b.last_summary);
    }

    #[test]
    fn partition_heals_and_protocol_completes() {
        let (d, c, g) = setup(4);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // Cut the low half from the high half for the whole gather phase.
        let plan = FaultPlan::seeded(9).with_partition(0..15, 15..30, 0, 12);
        let mut s = DistributedScheduler::default().with_faults(plan);
        let set = s.schedule(&input);
        assert!(d.is_feasible(&set), "{set:?}");
        let summary = s.last_summary.unwrap();
        assert!(summary.completed && summary.quiescent, "{summary:?}");
        assert_eq!(summary.crashed, 0);
    }

    #[test]
    fn total_crash_of_all_but_one_still_terminates() {
        let (d, c, g) = setup(5);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut plan = FaultPlan::seeded(1);
        for v in 1..30 {
            plan = plan.with_crash(v, 2);
        }
        let mut s = DistributedScheduler::default().with_faults(plan);
        let set = s.schedule(&input);
        assert!(d.is_feasible(&set), "{set:?}");
        let summary = s.last_summary.unwrap();
        assert_eq!(summary.survivors, 1);
        assert!(
            summary.completed,
            "the lone survivor must still colour itself"
        );
        assert!(
            set.iter().all(|&v| v == 0),
            "only the survivor may activate"
        );
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel};

    #[test]
    fn feasible_under_bounded_asynchrony() {
        for seed in 0..4u64 {
            let d = Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 30,
                n_tags: 400,
                region_side: 100.0,
                radius_model: RadiusModel::PoissonPair {
                    lambda_interference: 14.0,
                    lambda_interrogation: 6.0,
                },
            }
            .generate(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let mut s =
                DistributedScheduler::default().with_faults(FaultPlan::seeded(seed).with_delay(3));
            let set = s.schedule(&input);
            assert!(d.is_feasible(&set), "seed {seed}: {set:?}");
            // asynchrony costs some weight but not everything
            let clean = DistributedScheduler::default().schedule(&input);
            let w_delay = input.weight_of(&set) as f64;
            let w_clean = input.weight_of(&clean) as f64;
            assert!(
                w_delay >= 0.4 * w_clean,
                "seed {seed}: {w_delay} vs {w_clean}"
            );
        }
    }
}
