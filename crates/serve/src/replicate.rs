//! Cache replication and client-side failover.
//!
//! **Replication** ([`Replicator`]) is push-only gossip: every payload a
//! daemon publishes to its cache is offered to one bounded queue per
//! configured peer, and a per-peer thread delivers the entries over the
//! ordinary JSON-lines transport as [`Request::Gossip`] frames
//! (reconnecting with bounded backoff). Peers apply entries
//! idempotently and never re-gossip them, so there are no flooding
//! loops; with every daemon configured to push to every other, the
//! fleet's caches converge. Replication is strictly best-effort: a
//! partitioned or dead peer costs dropped-entry counters, never request
//! latency — the next cache miss on that peer simply re-solves, and
//! content addressing guarantees it re-derives the identical bytes.
//!
//! **Failover** ([`FailoverClient`]) is the client half of the story: it
//! walks a peer list, retrying one idempotent request on connection
//! failure, timeout, severed response, or a `503` from a draining
//! server, with bounded attempts and exponential backoff. Every attempt
//! carries the same `request_id`, so servers can count retries as
//! dedups rather than fresh demand.
//!
//! [`Request::Gossip`]: crate::protocol::Request::Gossip

use crate::codec::JobSpec;
use crate::protocol::{GossipEntry, CODE_SHUTTING_DOWN};
use crate::queue::WorkQueue;
use crate::server::{ClientError, TcpClient};
use crate::service::ScheduleReply;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-peer queue capacity. Overflow drops the oldest-offered entries
/// first in spirit (we drop the *new* entry and count it — the cache is
/// the source of truth, so drops are always recoverable by a re-solve).
const PEER_QUEUE_CAP: usize = 1024;
/// Delivery attempts per entry batch before it is dropped.
const DELIVERY_ATTEMPTS: u32 = 3;
/// Base backoff between delivery attempts (doubles per attempt).
const DELIVERY_BACKOFF: Duration = Duration::from_millis(20);

struct Peer {
    queue: Arc<WorkQueue<GossipEntry>>,
    handle: JoinHandle<()>,
}

/// Push-only gossip fan-out to a fixed peer list.
pub struct Replicator {
    peers: Vec<Peer>,
    offered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Replicator {
    /// Starts one delivery thread per peer address.
    pub fn start(addrs: &[String]) -> Replicator {
        let offered = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let peers = addrs
            .iter()
            .map(|addr| {
                let queue = Arc::new(WorkQueue::new(PEER_QUEUE_CAP));
                let thread_queue = Arc::clone(&queue);
                let thread_dropped = Arc::clone(&dropped);
                let addr = addr.clone();
                let handle = std::thread::Builder::new()
                    .name("serve-gossip".into())
                    .spawn(move || peer_loop(&addr, &thread_queue, &thread_dropped))
                    .expect("spawn gossip thread");
                Peer { queue, handle }
            })
            .collect();
        Replicator {
            peers,
            offered,
            dropped,
        }
    }

    /// `true` when no peers are configured (gossip disabled).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Offers one cache entry to every peer queue. Never blocks: a full
    /// queue (peer down or slow) drops the entry for that peer and
    /// counts it.
    pub fn offer(&self, key_hex: &str, payload: &str) {
        for peer in &self.peers {
            let entry = GossipEntry {
                key: key_hex.to_string(),
                payload: payload.to_string(),
            };
            match peer.queue.try_push(entry) {
                Ok(()) => {
                    self.offered.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Entries handed to peer queues so far.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Entries dropped: queue overflow plus delivery give-ups.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Closes the peer queues (pending entries are still delivered) and
    /// joins the delivery threads.
    pub fn shutdown(self) {
        for peer in &self.peers {
            peer.queue.close();
        }
        for peer in self.peers {
            let _ = peer.handle.join();
        }
    }
}

/// Delivers queued entries to one peer, reconnecting as needed. Entries
/// whose delivery keeps failing are dropped (and counted) so a dead peer
/// never wedges the queue.
fn peer_loop(addr: &str, queue: &WorkQueue<GossipEntry>, dropped: &AtomicU64) {
    let mut conn: Option<TcpClient> = None;
    while let Some(entry) = queue.pop() {
        let mut delivered = false;
        for attempt in 0..DELIVERY_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(DELIVERY_BACKOFF * (1 << (attempt - 1)));
            }
            if conn.is_none() {
                conn = TcpClient::connect(addr).ok();
            }
            let Some(client) = conn.as_mut() else {
                continue;
            };
            match client.gossip(std::slice::from_ref(&entry)) {
                Ok(_applied) => {
                    delivered = true;
                    break;
                }
                Err(_) => {
                    conn = None; // reconnect on the next attempt
                }
            }
        }
        if !delivered {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Failover policy knobs (attempts span the whole request, not one
/// peer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// Total attempts across all peers before giving up.
    pub attempts: u32,
    /// Base backoff between attempts (doubles per retry, capped at
    /// `max_backoff`).
    pub backoff: Duration,
    /// Upper bound for the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            attempts: 4,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// A scheduling client that retries idempotent requests across a peer
/// list. Connection failure, timeout, a severed response and `503`
/// rotate to the next peer; any other structured error is final (the
/// next peer would compute the same answer — content addressing makes
/// the request a pure function).
pub struct FailoverClient {
    peers: Vec<String>,
    policy: FailoverPolicy,
    client_id: String,
    seq: AtomicU64,
}

/// Process-wide source of distinct client ids (no wall clock needed).
static CLIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FailoverClient {
    /// The [`crate::ClientBuilder`]'s constructor: peers plus policy in
    /// one step. Construction goes through the builder
    /// (`ClientBuilder::new().addrs(peers).policy(policy).build()`) —
    /// the old direct `new`/`with_policy` constructors are gone.
    pub(crate) fn from_parts(peers: Vec<String>, policy: FailoverPolicy) -> FailoverClient {
        assert!(!peers.is_empty(), "failover needs at least one peer");
        FailoverClient {
            peers,
            policy,
            client_id: format!(
                "c{}-{}",
                std::process::id(),
                CLIENT_COUNTER.fetch_add(1, Ordering::Relaxed)
            ),
            seq: AtomicU64::new(0),
        }
    }

    /// The peer list, in preference order.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Schedules one job with failover. Each underlying attempt carries
    /// the same request id so servers can dedup retries.
    pub fn schedule(
        &self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<ScheduleReply, ClientError> {
        self.schedule_as(job, deadline_ms, None)
    }

    /// [`schedule`](Self::schedule) with a caller-chosen request id
    /// (generated per call when `None`) — the [`crate::ServeClient`]
    /// entry point.
    pub(crate) fn schedule_as(
        &self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        self.with_failover(request_id, |c, id| {
            c.schedule_with_id(job, deadline_ms, Some(id))
        })
    }

    /// The delta twin of [`schedule_as`](Self::schedule_as): same retry
    /// loop, same dedup id per attempt. A structured base-miss is
    /// **final**, not retried — a peer that never saw the base answers
    /// deterministically, and the caller's documented recovery is to
    /// re-send the full scenario.
    pub(crate) fn schedule_delta_as(
        &self,
        base: &str,
        ops: &[rfid_delta::ScenarioDelta],
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        self.with_failover(request_id, |c, id| {
            c.schedule_delta(base, ops, deadline_ms, Some(id))
        })
    }

    /// The retry loop both entry points share: one request id (the
    /// caller's, or a fresh one) for every attempt, exponential backoff
    /// between attempts, a fresh connection to the next peer each time.
    /// Only [`retryable`] errors move on; anything else is final.
    fn with_failover(
        &self,
        request_id: Option<&str>,
        mut call: impl FnMut(&mut TcpClient, &str) -> Result<ScheduleReply, ClientError>,
    ) -> Result<ScheduleReply, ClientError> {
        let request_id = request_id.map(String::from).unwrap_or_else(|| {
            format!(
                "{}-{}",
                self.client_id,
                self.seq.fetch_add(1, Ordering::Relaxed)
            )
        });
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                let exp = self
                    .policy
                    .backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(exp.min(self.policy.max_backoff));
            }
            let addr = &self.peers[attempt as usize % self.peers.len()];
            let result = TcpClient::connect(addr)
                .map_err(ClientError::from)
                .and_then(|mut c| call(&mut c, &request_id));
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) if retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("no attempt was made".into())))
    }
}

/// Errors worth trying the next peer for: transport failures and a
/// draining server. Structured application errors (bad request, unknown
/// algorithm, unsolvable) are deterministic — every peer would answer
/// the same.
fn retryable(err: &ClientError) -> bool {
    match err {
        ClientError::Io(_) | ClientError::Disconnected(_) => true,
        ClientError::Remote(e) => e.code == CODE_SHUTTING_DOWN,
        ClientError::Protocol(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Workload;
    use crate::server::Server;
    use crate::service::ServeConfig;
    use rfid_model::{RadiusModel, Scenario, ScenarioKind};

    fn small_job(seed: u64) -> JobSpec {
        JobSpec::new(Workload::Generated {
            scenario: Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 8,
                n_tags: 40,
                region_side: 40.0,
                radius_model: RadiusModel::paper_default(),
            },
            seed,
        })
    }

    fn quick() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            cache_cap: 32,
            ..ServeConfig::default()
        }
    }

    fn fast_policy() -> FailoverPolicy {
        FailoverPolicy {
            attempts: 4,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn failover_skips_a_dead_peer() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        // A bound-then-dropped listener: connections are refused.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client =
            FailoverClient::from_parts(vec![dead, server.addr().to_string()], fast_policy());
        let reply = client.schedule(&small_job(1), None).unwrap();
        assert!(!reply.cached);
        server.shutdown();
    }

    #[test]
    fn failover_gives_up_after_bounded_attempts() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = FailoverClient::from_parts(
            vec![dead],
            FailoverPolicy {
                attempts: 2,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
        );
        let err = client.schedule(&small_job(1), None).unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "{err}");
    }

    #[test]
    fn deterministic_errors_do_not_fail_over() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let client = FailoverClient::from_parts(vec![server.addr().to_string()], fast_policy());
        let mut job = small_job(1);
        job.algorithm = "quantum-annealing".into();
        let err = client.schedule(&job, None).unwrap_err();
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, crate::protocol::CODE_UNKNOWN_ALGORITHM)
            }
            other => panic!("expected the structured 404, got {other}"),
        }
        // One attempt only: no dedup-counted retries reached the server.
        assert_eq!(server.service().stats().deduped, 0);
        server.shutdown();
    }

    #[test]
    fn retries_of_one_request_are_deduped_server_side() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let addr = server.addr().to_string();
        let job = small_job(2);
        let mut c = TcpClient::connect(&addr).unwrap();
        let a = c.schedule_with_id(&job, None, Some("client-x-0")).unwrap();
        // The same request id again — as a failover retry would send.
        let b = c.schedule_with_id(&job, None, Some("client-x-0")).unwrap();
        assert_eq!(a.payload, b.payload);
        let stats = server.service().stats();
        assert_eq!(stats.deduped, 1);
        server.shutdown();
    }

    #[test]
    fn replicator_drops_entries_for_an_unreachable_peer() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let repl = Replicator::start(&[dead]);
        repl.offer("00ff", r#"{"slots":1}"#);
        assert_eq!(repl.offered(), 1);
        repl.shutdown(); // drains: delivery fails after bounded retries
    }
}
