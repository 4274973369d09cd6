//! The shard router: one thin process fanning requests across N
//! daemons by content key.
//!
//! `mrrfid route` runs this in front of a fleet of `mrrfid serve`
//! daemons. The router reuses the daemon's own building blocks — the
//! [`crate::reactor`] event loop on the client side, a
//! [`crate::WorkQueue`] + forwarder threads per shard on the daemon
//! side, each forwarder a [`crate::TcpClient`] — and speaks the same
//! JSON-lines protocol on both faces, so a
//! client cannot tell a router from a daemon:
//!
//! * **Schedule** frames are canonicalised with the same
//!   [`CanonicalJob`] the daemons use (router and fleet agree on the
//!   key byte-for-byte), mapped to a shard by the [`HashRing`], and
//!   forwarded **verbatim** — `request_id`, deadline and version ride
//!   along, and the shard's reply (its exact canonical payload bytes)
//!   rides back. The determinism contract therefore holds through the
//!   router: same key, same bytes, whichever path served it.
//! * **Delta** frames route by their **base** key: the shard that
//!   solved the base holds its spec, so it alone can patch it (or
//!   answer a structured base-miss).
//! * **Gossip** entries are partitioned by key and forwarded only to
//!   the shards that own them; the acks sum.
//! * **Stats** fans out to every shard and sums the counters, so the
//!   `hits + misses + coalesced == requests` invariant can be checked
//!   fleet-wide at the router.
//! * **Shutdown** stops the router only — daemons outlive it and are
//!   stopped individually (they may serve other routers).
//!
//! Sharding by content key means each daemon's cache holds a disjoint
//! slice of the keyspace: N daemons give N× the cache capacity and N×
//! the solve throughput, at one extra network hop of latency.

use crate::client::{ClientError, FailoverPolicy, TcpClient};
use crate::codec::{scan_key_frame, CanonicalJob, JobSpec};
use crate::protocol::{
    decode_frame, encode_frame, version_gate, GossipEntry, Request, Response, ServiceStats,
    CODE_BAD_REQUEST, CODE_QUEUE_FULL, CODE_SHUTTING_DOWN, PROTOCOL_VERSION,
};
use crate::queue::{PushError, ResponseSlot, WorkQueue};
use crate::reactor::{FrameHandler, Reactor, Reply};
use crate::ring::HashRing;
use crate::service::ServiceError;
use rfid_core::SchedulerRegistry;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::Duration;

/// Router construction parameters (the CLI's `route --shards` flag).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterConfig {
    /// Daemon addresses to shard across (at least one).
    pub shards: Vec<String>,
}

/// What came back from a shard for one forwarded frame.
type ForwardResult = Result<Response, ClientError>;

struct ForwardJob {
    /// The raw request line, newline-terminated, forwarded verbatim.
    frame: String,
    slot: Arc<ResponseSlot<ForwardResult>>,
}

struct RouterShared {
    ring: HashRing,
    registry: SchedulerRegistry,
    /// One forward queue per shard, index-aligned with the ring.
    queues: Vec<Arc<WorkQueue<ForwardJob>>>,
    /// Schedule frames routed, per shard.
    routed: Vec<AtomicU64>,
    /// Forwards that failed at the transport after bounded retries.
    forward_errors: AtomicU64,
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
}

impl RouterShared {
    fn request_shutdown(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        if !*stopped {
            *stopped = true;
            self.stopped_cv.notify_all();
        }
    }

    /// Enqueues one frame for a shard; the returned slot resolves with
    /// the shard's response (or a transport error).
    fn forward(
        &self,
        shard: usize,
        frame: String,
    ) -> Result<Arc<ResponseSlot<ForwardResult>>, PushError> {
        let slot = Arc::new(ResponseSlot::new());
        self.queues[shard].try_push(ForwardJob {
            frame,
            slot: Arc::clone(&slot),
        })?;
        Ok(slot)
    }
}

/// Maps a forward outcome to the frame sent back to the client. A
/// transport failure becomes a retryable `503` (the shard may be
/// restarting; a failover client retries another router or waits).
fn forwarded_frame(shared: &RouterShared, shard: usize, result: ForwardResult) -> String {
    match result {
        Ok(response) => encode_frame(&response),
        Err(e) => {
            shared.forward_errors.fetch_add(1, Ordering::Relaxed);
            encode_frame(&Response::Error {
                code: CODE_SHUTTING_DOWN,
                message: format!("shard {} unavailable: {e}", shared.ring.shards()[shard]),
            })
        }
    }
}

fn admission_error(e: PushError) -> Response {
    match e {
        PushError::Full => Response::Error {
            code: CODE_QUEUE_FULL,
            message: "router forward queue full; retry later".into(),
        },
        PushError::Closed => Response::Error {
            code: CODE_SHUTTING_DOWN,
            message: "router is shutting down".into(),
        },
    }
}

struct RouteHandler {
    shared: Arc<RouterShared>,
}

impl RouteHandler {
    fn route_schedule(&self, line: &str, job: &JobSpec) -> Reply {
        let shared = &self.shared;
        // Same canonicalisation as the daemon: router and shard agree
        // on the key byte-for-byte. Codec errors answer locally — no
        // shard would accept the job either.
        let canonical = match CanonicalJob::new(job, &shared.registry) {
            Ok(c) => c,
            Err(e) => {
                let err = ServiceError::from(e);
                return Reply::Now(encode_frame(&Response::Error {
                    code: err.code,
                    message: err.message,
                }));
            }
        };
        self.forward_to_shard(line, shared.ring.shard_of(canonical.key))
    }

    /// Delta frames route by the **base** content key: the shard that
    /// solved the base holds its spec, so it is the one node that can
    /// patch it. The derived payload is cached there too, so a repeated
    /// delta against the same base is a warm hit on the owning shard.
    fn route_delta(&self, line: &str, base: &str) -> Reply {
        let Some(base_key) = rfid_delta::parse_key_hex(base) else {
            return Reply::Now(encode_frame(&Response::Error {
                code: CODE_BAD_REQUEST,
                message: format!("malformed base key {base:?}: expected 16 hex digits"),
            }));
        };
        self.forward_to_shard(line, self.shared.ring.shard_of(base_key))
    }

    /// Key frames route by the key in the frame — which is the **base**
    /// key even when ops ride along (derived schedules are cached on
    /// the base's shard). No canonicalisation, no codec: the key is all
    /// the ring needs, so the shallow scan suffices and the line
    /// forwards verbatim.
    fn route_key(&self, line: &str, key: &str) -> Reply {
        let Some(base_key) = rfid_delta::parse_key_hex(key) else {
            return Reply::Now(encode_frame(&Response::Error {
                code: CODE_BAD_REQUEST,
                message: format!("malformed key {key:?}: expected 16 hex digits"),
            }));
        };
        self.forward_to_shard(line, self.shared.ring.shard_of(base_key))
    }

    /// Counts the route and forwards the raw line verbatim; the shard's
    /// exact reply bytes ride back through a pending reply.
    fn forward_to_shard(&self, line: &str, shard: usize) -> Reply {
        let shared = &self.shared;
        shared.routed[shard].fetch_add(1, Ordering::Relaxed);
        let mut frame = line.trim_end_matches(['\r', '\n']).to_string();
        frame.push('\n');
        match shared.forward(shard, frame) {
            Ok(slot) => {
                let shared = Arc::clone(shared);
                let reply = move |waker: &Waker| {
                    slot.try_take(waker)
                        .map(|result| forwarded_frame(&shared, shard, result))
                };
                Reply::Pending(Box::new(reply), None)
            }
            Err(e) => Reply::Now(encode_frame(&admission_error(e))),
        }
    }

    fn route_gossip(&self, entries: Vec<GossipEntry>) -> Reply {
        let shared = &self.shared;
        // Partition entries by owning shard; unparseable keys are
        // dropped (a daemon would reject them anyway).
        let mut per_shard: Vec<Vec<GossipEntry>> = vec![Vec::new(); shared.ring.len()];
        for entry in entries {
            if let Ok(key) = u64::from_str_radix(&entry.key, 16) {
                per_shard[shared.ring.shard_of(key)].push(entry);
            }
        }
        let mut slots = Vec::new();
        for (shard, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let frame = encode_frame(&Request::Gossip {
                entries: group,
                v: Some(PROTOCOL_VERSION),
            });
            if let Ok(slot) = shared.forward(shard, frame) {
                slots.push(slot);
            }
        }
        // Sum the acks as they land; an unreachable shard contributes 0.
        let mut applied = 0u64;
        let reply = move |waker: &Waker| {
            while let Some(slot) = slots.last() {
                match slot.try_take(waker) {
                    Some(Ok(Response::GossipAck { applied: n })) => {
                        applied += n;
                        slots.pop();
                    }
                    Some(_) => {
                        slots.pop(); // error or odd frame: best effort
                    }
                    None => return None,
                }
            }
            Some(encode_frame(&Response::GossipAck { applied }))
        };
        Reply::Pending(Box::new(reply), None)
    }

    fn route_stats(&self) -> Reply {
        let shared = &self.shared;
        let frame = encode_frame(&Request::Stats);
        let mut slots = Vec::new();
        for shard in 0..shared.ring.len() {
            if let Ok(slot) = shared.forward(shard, frame.clone()) {
                slots.push(slot);
            }
        }
        let mut total = ServiceStats::default();
        let mut metrics: Vec<String> = Vec::new();
        let reply = move |waker: &Waker| {
            while let Some(slot) = slots.last() {
                match slot.try_take(waker) {
                    Some(Ok(Response::Stats { stats, metrics: m })) => {
                        add_stats(&mut total, &stats);
                        metrics.push(m);
                        slots.pop();
                    }
                    Some(_) => {
                        slots.pop(); // unreachable shard: skip its share
                    }
                    None => return None,
                }
            }
            Some(encode_frame(&Response::Stats {
                stats: total,
                metrics: format!("[{}]", metrics.join(",")),
            }))
        };
        Reply::Pending(Box::new(reply), None)
    }
}

impl FrameHandler for RouteHandler {
    fn on_line(&self, line: &str) -> Reply {
        // Key frames need only the key to route (ops or not), so the
        // shallow scan skips the serde parse entirely; anything the
        // scanner finds ambiguous falls through to the full decode,
        // whose `Request::Key` arm routes identically.
        if let Some(scan) = scan_key_frame(line) {
            return match version_gate(scan.v) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => self.route_key(line, scan.key),
            };
        }
        match decode_frame::<Request>(line) {
            Ok(Request::Hello { v }) => match version_gate(Some(v)) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => Reply::Now(encode_frame(&Response::HelloAck {
                    v: PROTOCOL_VERSION,
                })),
            },
            Ok(Request::Schedule { ref job, v, .. }) => match version_gate(v) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => self.route_schedule(line, job),
            },
            Ok(Request::Delta { ref base, v, .. }) => match version_gate(v) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => self.route_delta(line, base),
            },
            Ok(Request::Key { ref key, v, .. }) => match version_gate(v) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => self.route_key(line, key),
            },
            Ok(Request::Gossip { entries, v }) => match version_gate(v) {
                Some(err) => Reply::Now(encode_frame(&err)),
                None => self.route_gossip(entries),
            },
            Ok(Request::Stats) => self.route_stats(),
            Ok(Request::Shutdown) => {
                self.shared.request_shutdown();
                Reply::Now(encode_frame(&Response::Bye))
            }
            Err(message) => Reply::Now(encode_frame(&Response::Error {
                code: CODE_BAD_REQUEST,
                message: format!("unparseable frame: {message}"),
            })),
        }
    }

    fn drain_fallback(&self) -> String {
        encode_frame(&Response::Error {
            code: CODE_SHUTTING_DOWN,
            message: "router stopped before the shard answered".into(),
        })
    }
}

/// Field-by-field sum of two [`ServiceStats`] — the fleet-wide view.
fn add_stats(a: &mut ServiceStats, b: &ServiceStats) {
    a.requests += b.requests;
    a.cache_hits += b.cache_hits;
    a.cache_misses += b.cache_misses;
    a.coalesced += b.coalesced;
    a.cache_evictions += b.cache_evictions;
    a.cache_expired += b.cache_expired;
    a.cache_entries += b.cache_entries;
    a.rejected_full += b.rejected_full;
    a.rejected_shutdown += b.rejected_shutdown;
    a.deadline_expired += b.deadline_expired;
    a.solved += b.solved;
    a.errors += b.errors;
    a.queue_depth += b.queue_depth;
    a.workers += b.workers;
    a.recovered_entries += b.recovered_entries;
    a.journal_appends += b.journal_appends;
    a.journal_append_errors += b.journal_append_errors;
    a.snapshots_written += b.snapshots_written;
    a.replicated_out += b.replicated_out;
    a.replication_dropped += b.replication_dropped;
    a.replicated_in += b.replicated_in;
    a.deduped += b.deduped;
}

/// Forwarding of one frame: 2 attempts back to back, the second on a
/// fresh connection, before it resolves as a transport error.
/// Schedule, gossip and stats frames are all idempotent, so a blind
/// re-send is safe.
const FORWARD: FailoverPolicy = FailoverPolicy {
    attempts: 2,
    backoff: Duration::ZERO,
    max_backoff: Duration::ZERO,
};

/// Forwarder connections (threads) per shard.
const CONNS_PER_SHARD: usize = 4;

/// Forward-queue capacity per shard; overflow answers `429`.
const QUEUE_CAP: usize = 1024;

/// One forwarder thread: owns one connection to its shard, drains the
/// shard's queue, round-trips each frame, fulfills each slot.
fn forward_loop(addr: String, queue: Arc<WorkQueue<ForwardJob>>) {
    let mut shard = TcpClient::failover(vec![addr], FORWARD);
    while let Some(job) = queue.pop() {
        job.slot.fulfill(shard.forward(&job.frame));
    }
}

/// A running router process: a reactor front, a forwarder pool per
/// shard behind.
pub struct Router {
    shared: Arc<RouterShared>,
    reactor: Option<Reactor>,
    forwarders: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Router {
    /// Binds `addr` and starts routing across `config.shards`.
    ///
    /// # Panics
    /// When `config.shards` is empty — a router with nothing behind it
    /// is a configuration error, not a runtime condition.
    pub fn start(addr: &str, config: RouterConfig) -> std::io::Result<Router> {
        assert!(
            !config.shards.is_empty(),
            "a router needs at least one shard"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut queues = Vec::with_capacity(config.shards.len());
        let mut forwarders = Vec::new();
        for shard_addr in &config.shards {
            let queue = Arc::new(WorkQueue::new(QUEUE_CAP));
            for i in 0..CONNS_PER_SHARD {
                let q = Arc::clone(&queue);
                let a = shard_addr.clone();
                forwarders.push(
                    std::thread::Builder::new()
                        .name(format!("route-fwd-{a}-{i}"))
                        .spawn(move || forward_loop(a, q))?,
                );
            }
            queues.push(queue);
        }
        let shared = Arc::new(RouterShared {
            ring: HashRing::new(&config.shards),
            registry: SchedulerRegistry::global(),
            routed: config.shards.iter().map(|_| AtomicU64::new(0)).collect(),
            forward_errors: AtomicU64::new(0),
            queues,
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
        });
        let handler = Arc::new(RouteHandler {
            shared: Arc::clone(&shared),
        });
        let reactor = Reactor::spawn(listener, handler)?;
        Ok(Router {
            shared,
            reactor: Some(reactor),
            forwarders,
            addr: local,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Schedule frames routed to each shard (index-aligned with the
    /// config's shard list) — the load-balance witness.
    pub fn routed_per_shard(&self) -> Vec<u64> {
        self.shared
            .routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Forwards that failed at the transport after retries.
    pub fn forward_errors(&self) -> u64 {
        self.shared.forward_errors.load(Ordering::Relaxed)
    }

    /// Raises the stop flag. Non-blocking; idempotent.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (a `Shutdown` frame or
    /// [`request_shutdown`](Self::request_shutdown)), then tears down in
    /// the drain-then-stop order: pause intake, close and drain the
    /// forward queues (every admitted forward resolves while the reactor
    /// keeps flushing), stop the reactor. Shard daemons keep running.
    pub fn run_until_shutdown(mut self) {
        {
            let mut stopped = self.shared.stopped.lock().expect("stop flag poisoned");
            while !*stopped {
                stopped = self
                    .shared
                    .stopped_cv
                    .wait(stopped)
                    .expect("stop flag poisoned");
            }
        }
        let reactor = self.reactor.take();
        if let Some(r) = &reactor {
            r.pause_intake();
        }
        for queue in &self.shared.queues {
            queue.close();
        }
        // Joining the forwarders guarantees every admitted forward has
        // fulfilled its slot before the reactor's final drain runs.
        for h in self.forwarders.drain(..) {
            let _ = h.join();
        }
        if let Some(r) = reactor {
            r.stop();
        }
    }

    /// Convenience for tests: request shutdown and complete the
    /// teardown.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.run_until_shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // A router dropped without `run_until_shutdown` must not leak
        // its forwarder threads (blocked in `pop`) or hang the reactor.
        if let Some(r) = self.reactor.take() {
            r.stop();
        }
        for queue in &self.shared.queues {
            queue.close();
        }
        for h in self.forwarders.drain(..) {
            let _ = h.join();
        }
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

    fn daemon() -> Server {
        Server::start(
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                queue_cap: 64,
                cache_cap: 128,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn routes_schedules_and_aggregates_stats_across_two_shards() {
        let a = daemon();
        let b = daemon();
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string(), b.addr().to_string()],
            },
        )
        .unwrap();
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        // Enough distinct jobs that both shards get some (64 keys).
        let jobs: Vec<JobSpec> = (0..64).map(small_job).collect();
        for job in &jobs {
            let cold = client.schedule(job, None).unwrap();
            assert!(!cold.cached);
        }
        // Re-request: every key must now hit the cache of its shard.
        for job in &jobs {
            let warm = client.schedule(job, None).unwrap();
            assert!(warm.cached, "owning shard must have the key cached");
        }
        let routed = router.routed_per_shard();
        assert_eq!(routed.iter().sum::<u64>(), 128);
        assert!(
            routed.iter().all(|&n| n > 0),
            "both shards must take load: {routed:?}"
        );
        // Fleet-wide counters through the router: the invariant holds.
        let (stats, metrics) = client.stats().unwrap();
        assert_eq!(stats.requests, 128);
        assert_eq!(stats.cache_hits + stats.cache_misses + stats.coalesced, 128);
        assert_eq!(stats.cache_hits, 64);
        assert_eq!(stats.solved, 64);
        assert!(metrics.starts_with('['), "per-shard metrics are joined");
        assert_eq!(router.forward_errors(), 0);
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn router_payloads_match_a_direct_daemon_byte_for_byte() {
        let a = daemon();
        let b = daemon();
        let standalone = daemon();
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string(), b.addr().to_string()],
            },
        )
        .unwrap();
        let mut via_router = TcpClient::connect(&router.addr().to_string()).unwrap();
        let mut direct = TcpClient::connect(&standalone.addr().to_string()).unwrap();
        for seed in 0..12 {
            let job = small_job(seed);
            let routed = via_router.schedule(&job, None).unwrap();
            let local = direct.schedule(&job, None).unwrap();
            assert_eq!(routed.key, local.key, "same canonical key everywhere");
            assert_eq!(
                routed.payload, local.payload,
                "determinism contract holds through the router"
            );
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
        standalone.shutdown();
    }

    #[test]
    fn router_shutdown_leaves_daemons_running() {
        let a = daemon();
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string()],
            },
        )
        .unwrap();
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        client.schedule(&small_job(7), None).unwrap();
        client.shutdown_server().unwrap();
        router.run_until_shutdown();
        // The daemon still answers directly, cache intact.
        let mut direct = TcpClient::connect(&a.addr().to_string()).unwrap();
        let warm = direct.schedule(&small_job(7), None).unwrap();
        assert!(warm.cached);
        a.shutdown();
    }

    #[test]
    fn dead_shard_is_a_structured_retryable_error() {
        let a = daemon();
        let dead_addr = {
            // Reserve and release a port nothing listens on.
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string(), dead_addr],
            },
        )
        .unwrap();
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        let mut saw_unavailable = false;
        for seed in 0..32 {
            match client.schedule(&small_job(seed), None) {
                Ok(reply) => assert!(!reply.cached),
                Err(ClientError::Remote(e)) => {
                    assert_eq!(e.code, CODE_SHUTTING_DOWN, "{e}");
                    assert!(e.message.contains("unavailable"), "{e}");
                    saw_unavailable = true;
                }
                Err(other) => panic!("expected a structured error, got {other:?}"),
            }
        }
        assert!(saw_unavailable, "some keys must land on the dead shard");
        assert!(router.forward_errors() > 0);
        router.shutdown();
        a.shutdown();
    }

    #[test]
    fn delta_frames_route_to_the_shard_owning_the_base() {
        use rfid_delta::ScenarioDelta;
        let a = daemon();
        let b = daemon();
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string(), b.addr().to_string()],
            },
        )
        .unwrap();
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        let ops = vec![ScenarioDelta::AddTag { x: 10.0, y: 10.0 }];
        for seed in 0..8 {
            let base = client.schedule(&small_job(seed), None).unwrap();
            // The delta must land on the shard that solved the base —
            // any other shard would answer a base-miss.
            let patched = client.schedule_delta(&base.key, &ops, None, None).unwrap();
            assert_ne!(patched.key, base.key);
            let again = client.schedule_delta(&base.key, &ops, None, None).unwrap();
            assert!(again.cached, "derived key must be warm on the base shard");
            assert_eq!(again.payload, patched.payload);
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn key_frames_route_to_the_owning_shard_with_identical_bytes() {
        use rfid_delta::ScenarioDelta;
        let a = daemon();
        let b = daemon();
        let router = Router::start(
            "127.0.0.1:0",
            RouterConfig {
                shards: vec![a.addr().to_string(), b.addr().to_string()],
            },
        )
        .unwrap();
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        // Warm both shards, then address every schedule by key alone:
        // the router must land each key frame on its owning shard.
        let replies: Vec<_> = (0..16)
            .map(|seed| client.schedule(&small_job(seed), None).unwrap())
            .collect();
        for reply in &replies {
            let hit = client.schedule_by_key(&reply.key, &[]).unwrap();
            assert!(hit.cached, "owning shard must hold {}", reply.key);
            assert_eq!(hit.key, reply.key);
            assert_eq!(hit.payload, reply.payload, "identical bytes via key path");
        }
        // Key+ops frames route by the base key (the derived schedule is
        // cached on the base's shard).
        let ops = vec![ScenarioDelta::AddTag { x: 3.0, y: 4.0 }];
        for reply in replies.iter().take(4) {
            let patched = client.schedule_delta(&reply.key, &ops, None, None).unwrap();
            let hit = client.schedule_by_key(&reply.key, &ops).unwrap();
            assert!(hit.cached);
            assert_eq!(hit.key, patched.key);
            assert_eq!(hit.payload, patched.payload);
        }
        // An uncached key answers the shard's structured key-miss.
        let err = client.schedule_by_key("00000000000000bb", &[]).unwrap_err();
        assert!(
            matches!(&err, ClientError::Remote(e) if e.message.starts_with("key-miss")),
            "{err:?}"
        );
        assert_eq!(router.forward_errors(), 0);
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn gossip_through_the_router_partitions_by_key() {
        let a = daemon();
        let b = daemon();
        let shards = vec![a.addr().to_string(), b.addr().to_string()];
        let router = Router::start("127.0.0.1:0", RouterConfig { shards }).unwrap();
        // Solve on a scratch daemon to get real entries to gossip.
        let scratch = daemon();
        let mut s = TcpClient::connect(&scratch.addr().to_string()).unwrap();
        let mut entries = Vec::new();
        for seed in 100..116 {
            let reply = s.schedule(&small_job(seed), None).unwrap();
            entries.push(GossipEntry {
                key: reply.key.clone(),
                payload: reply.payload.to_string(),
            });
        }
        let mut client = TcpClient::connect(&router.addr().to_string()).unwrap();
        assert_eq!(client.gossip(&entries).unwrap(), entries.len() as u64);
        // Every entry landed, split across the two owning shards.
        let in_a = a.service().stats().replicated_in;
        let in_b = b.service().stats().replicated_in;
        assert_eq!(in_a + in_b, entries.len() as u64);
        assert!(in_a > 0 && in_b > 0, "both shards absorbed entries");
        // A gossiped key now serves warm through the router, with the
        // exact payload bytes the scratch daemon solved.
        let warm = client.schedule(&small_job(100), None).unwrap();
        assert!(warm.cached, "gossip must have warmed the owning shard");
        assert_eq!(warm.payload.to_string(), entries[0].payload);
        router.shutdown();
        a.shutdown();
        b.shutdown();
        scratch.shutdown();
    }
}
