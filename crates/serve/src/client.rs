//! The unified client surface: one builder, one trait, three
//! transports.
//!
//! Earlier releases grew three parallel client types — the in-process
//! `Client` over a [`Service`], the wire-level [`TcpClient`] and the
//! retrying [`FailoverClient`] — each with its own constructor and
//! slightly different call shape. This module collapses them behind:
//!
//! * [`ServeClient`] — the request surface every transport speaks:
//!   `schedule` / `schedule_with_id` / `schedule_delta` / `stats`. Code
//!   written against `&mut dyn ServeClient` runs unchanged over any
//!   transport.
//! * [`ClientBuilder`] — the one constructor. What it builds follows
//!   from what you give it: an in-process [`Service`] handle, a single
//!   address (plain TCP), or several addresses and/or a
//!   [`FailoverPolicy`] (failover with retries). A default deadline set
//!   on the builder applies to every call that does not carry its own.
//!
//! The old types remain as the underlying transports, constructed only
//! through the builder (the one-release deprecated shims —
//! `Client::new`, `FailoverClient::new` — are gone). [`TcpClient`]
//! itself stays public — it *is* the wire transport the builder hands
//! back for single-address targets, and lower layers (the replicator,
//! the router's forwarders) use it directly.

//! Since protocol v4 the built client also keeps a **key memo**: once a
//! job (or delta) has round-tripped in full, repeat submissions address
//! the cached schedule by content key alone — a tiny `Key` frame the
//! server answers without touching the scenario codec. A server that no
//! longer holds the key answers a structured `key-miss` 404 and the
//! client transparently falls back to the full frame, so callers never
//! see the fast path, only the latency.

use crate::codec::JobSpec;
use crate::protocol::ServiceStats;
use crate::replicate::{FailoverClient, FailoverPolicy};
use crate::server::{ClientError, TcpClient};
use crate::service::{ScheduleReply, Service};
use rfid_delta::{fnv1a64, ScenarioDelta};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Memoised identities per built client before the memo resets (the
/// same wholesale-clear policy as the server's dedup window: bounded
/// memory, no per-entry bookkeeping on the hot path).
const MEMO_CAP: usize = 1024;

/// The client-side record of what the server has already been sent in
/// full, keyed by cheap frame-identity hashes. A stale entry is
/// harmless: the key path misses and the full frame repopulates it.
#[derive(Default)]
struct KeyMemo {
    /// Job identity → the content key the server answered with.
    jobs: HashMap<u64, String>,
    /// Delta identities (base key + ops) already solved server-side.
    deltas: HashSet<u64>,
}

impl KeyMemo {
    fn job_identity(job: &JobSpec) -> u64 {
        let encoded = serde_json::to_string(job).expect("job serialisation cannot fail");
        fnv1a64(encoded.as_bytes())
    }

    fn delta_identity(base: &str, ops: &[ScenarioDelta]) -> u64 {
        let encoded = serde_json::to_string(ops).expect("ops serialisation cannot fail");
        fnv1a64(format!("{base}:{encoded}").as_bytes())
    }

    fn remember_job(&mut self, identity: u64, key: &str) {
        if self.jobs.len() >= MEMO_CAP {
            self.jobs.clear();
        }
        self.jobs.insert(identity, key.to_string());
    }

    fn remember_delta(&mut self, identity: u64) {
        if self.deltas.len() >= MEMO_CAP {
            self.deltas.clear();
        }
        self.deltas.insert(identity);
    }
}

/// The request surface shared by every transport: schedule a job, fetch
/// fleet counters. `deadline_ms = None` means "no deadline, unless the
/// builder configured a default".
pub trait ServeClient {
    /// Schedules one job, optionally bounded by a server-side deadline.
    fn schedule(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<ScheduleReply, ClientError> {
        self.schedule_with_id(job, deadline_ms, None)
    }

    /// [`schedule`](Self::schedule) carrying a client request id, so a
    /// retry of this idempotent request can be deduplicated server-side.
    fn schedule_with_id(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError>;

    /// Schedules a **delta** job: `ops` applied to the scenario the
    /// server already holds under the `base` content key (protocol v3).
    /// A server that never saw the base answers a structured `404`
    /// whose message starts with `base-miss` — re-send the full
    /// scenario via [`schedule`](Self::schedule) in that case.
    fn schedule_delta(
        &mut self,
        base: &str,
        ops: &[ScenarioDelta],
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError>;

    /// Service counters (fleet-wide when the target is a router).
    fn stats(&mut self) -> Result<ServiceStats, ClientError>;
}

impl ServeClient for TcpClient {
    fn schedule_with_id(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        TcpClient::schedule_with_id(self, job, deadline_ms, request_id)
    }

    fn schedule_delta(
        &mut self,
        base: &str,
        ops: &[ScenarioDelta],
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        TcpClient::schedule_delta(self, base, ops, deadline_ms, request_id)
    }

    fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        TcpClient::stats(self).map(|(stats, _metrics)| stats)
    }
}

enum Transport {
    InProcess(Service),
    Tcp(TcpClient),
    Failover(FailoverClient),
}

/// A client produced by [`ClientBuilder::build`]: one of the three
/// transports plus the builder's default deadline, behind the
/// [`ServeClient`] surface.
pub struct BuiltClient {
    transport: Transport,
    default_deadline_ms: Option<u64>,
    memo: KeyMemo,
}

impl BuiltClient {
    /// `true` when requests stay in-process (no socket involved).
    pub fn is_in_process(&self) -> bool {
        matches!(self.transport, Transport::InProcess(_))
    }

    /// One attempt down the request-by-key fast path. `Ok(Some)` is a
    /// hit; `Ok(None)` means "send the full frame" — a structured
    /// key-miss, or a transport without the path (failover retries may
    /// land on peers that never saw the key, so it always goes full).
    /// Anything else is a real error.
    fn try_key_path(
        &mut self,
        key: &str,
        ops: &[ScenarioDelta],
    ) -> Result<Option<ScheduleReply>, ClientError> {
        let result = match &mut self.transport {
            Transport::InProcess(service) => service
                .request_by_key(key, ops)
                .map(|hit| hit.into_reply())
                .map_err(ClientError::Remote),
            Transport::Tcp(client) => client.schedule_by_key(key, ops),
            Transport::Failover(_) => return Ok(None),
        };
        match result {
            Ok(reply) => Ok(Some(reply)),
            Err(ClientError::Remote(e)) if e.message.starts_with("key-miss") => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl ServeClient for BuiltClient {
    fn schedule_with_id(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        // Known job → address it by key alone; a miss (server dropped
        // the entry) falls through to the full frame below.
        let identity = KeyMemo::job_identity(job);
        if let Some(key) = self.memo.jobs.get(&identity).cloned() {
            if let Some(reply) = self.try_key_path(&key, &[])? {
                return Ok(reply);
            }
            self.memo.jobs.remove(&identity);
        }
        let deadline_ms = deadline_ms.or(self.default_deadline_ms);
        let reply = match &mut self.transport {
            Transport::InProcess(service) => service
                .schedule_with_id(job, deadline_ms.map(Duration::from_millis), request_id)
                .map_err(ClientError::Remote),
            Transport::Tcp(client) => client.schedule_with_id(job, deadline_ms, request_id),
            Transport::Failover(client) => client.schedule_as(job, deadline_ms, request_id),
        }?;
        self.memo.remember_job(identity, &reply.key);
        Ok(reply)
    }

    fn schedule_delta(
        &mut self,
        base: &str,
        ops: &[ScenarioDelta],
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        // A delta the server solved before answers from cache via a
        // key+ops frame — no base resolution, no patching.
        let identity = KeyMemo::delta_identity(base, ops);
        if self.memo.deltas.contains(&identity) {
            if let Some(reply) = self.try_key_path(base, ops)? {
                return Ok(reply);
            }
            self.memo.deltas.remove(&identity);
        }
        let deadline_ms = deadline_ms.or(self.default_deadline_ms);
        let reply = match &mut self.transport {
            Transport::InProcess(service) => service
                .schedule_delta(
                    base,
                    ops,
                    deadline_ms.map(Duration::from_millis),
                    request_id,
                )
                .map_err(ClientError::Remote),
            Transport::Tcp(client) => client.schedule_delta(base, ops, deadline_ms, request_id),
            Transport::Failover(client) => {
                client.schedule_delta_as(base, ops, deadline_ms, request_id)
            }
        }?;
        self.memo.remember_delta(identity);
        Ok(reply)
    }

    fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match &mut self.transport {
            Transport::InProcess(service) => Ok(service.stats()),
            Transport::Tcp(client) => client.stats().map(|(stats, _metrics)| stats),
            Transport::Failover(client) => {
                // Stats are not idempotent-critical; ask the first peer
                // that answers.
                let mut last = ClientError::Protocol("no peers configured".into());
                for addr in client.peers() {
                    match TcpClient::connect(addr) {
                        Ok(mut c) => match c.stats() {
                            Ok((stats, _metrics)) => return Ok(stats),
                            Err(e) => last = e,
                        },
                        Err(e) => last = e.into(),
                    }
                }
                Err(last)
            }
        }
    }
}

/// The one way to construct a serve client. Configure a target — an
/// in-process [`Service`], one address, or a peer list — plus optional
/// retry policy and default deadline, then [`build`](Self::build):
///
/// ```no_run
/// use rfid_serve::{ClientBuilder, ServeClient};
/// # let job: rfid_serve::JobSpec = unimplemented!();
/// let mut client = ClientBuilder::new()
///     .addrs(["10.0.0.1:7400".into(), "10.0.0.2:7400".into()])
///     .deadline_ms(2_000)
///     .build()
///     .unwrap();
/// let reply = client.schedule(&job, None).unwrap();
/// ```
#[derive(Default)]
pub struct ClientBuilder {
    addrs: Vec<String>,
    service: Option<Service>,
    policy: Option<FailoverPolicy>,
    deadline_ms: Option<u64>,
}

impl ClientBuilder {
    /// An empty builder: configure a target before
    /// [`build`](Self::build).
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Adds one server (or router) address. Called once, the built
    /// client is plain TCP; called repeatedly (or combined with
    /// [`policy`](Self::policy)), it fails over across the list.
    pub fn addr(mut self, addr: impl Into<String>) -> ClientBuilder {
        self.addrs.push(addr.into());
        self
    }

    /// Adds several addresses at once (failover order).
    pub fn addrs(mut self, addrs: impl IntoIterator<Item = String>) -> ClientBuilder {
        self.addrs.extend(addrs);
        self
    }

    /// Targets an in-process [`Service`] — no socket, same surface.
    pub fn in_process(mut self, service: Service) -> ClientBuilder {
        self.service = Some(service);
        self
    }

    /// Retry policy for the failover transport. Setting a policy makes
    /// the built client a failover client even over a single address
    /// (retrying that one address with backoff).
    pub fn policy(mut self, policy: FailoverPolicy) -> ClientBuilder {
        self.policy = Some(policy);
        self
    }

    /// Default server-side deadline applied to every schedule call that
    /// does not pass its own.
    pub fn deadline_ms(mut self, ms: u64) -> ClientBuilder {
        self.deadline_ms = Some(ms);
        self
    }

    /// Builds the client the configuration implies. Errors when no
    /// target was configured or the single-address TCP connect fails
    /// (failover targets connect lazily, per attempt).
    pub fn build(self) -> Result<BuiltClient, ClientError> {
        let transport = match (self.service, self.addrs, self.policy) {
            (Some(service), addrs, _) if addrs.is_empty() => Transport::InProcess(service),
            (Some(_), _, _) => {
                return Err(ClientError::Protocol(
                    "client builder: configure either in_process or addresses, not both".into(),
                ))
            }
            (None, addrs, _) if addrs.is_empty() => {
                return Err(ClientError::Protocol(
                    "client builder: no address and no in-process service configured".into(),
                ))
            }
            (None, addrs, None) if addrs.len() == 1 => {
                Transport::Tcp(TcpClient::connect(&addrs[0])?)
            }
            (None, addrs, policy) => Transport::Failover(FailoverClient::from_parts(
                addrs,
                policy.unwrap_or_default(),
            )),
        };
        Ok(BuiltClient {
            transport,
            default_deadline_ms: self.deadline_ms,
            memo: KeyMemo::default(),
        })
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

    #[test]
    fn in_process_and_tcp_transports_return_identical_bytes() {
        let service = Service::start(quick()).unwrap();
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let mut local = ClientBuilder::new()
            .in_process(service.clone())
            .build()
            .unwrap();
        let mut remote = ClientBuilder::new()
            .addr(server.addr().to_string())
            .build()
            .unwrap();
        assert!(local.is_in_process());
        assert!(!remote.is_in_process());
        let a = local.schedule(&small_job(3), None).unwrap();
        let b = remote.schedule(&small_job(3), None).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.payload, b.payload, "one contract across transports");
        assert_eq!(local.stats().unwrap().solved, 1);
        assert_eq!(remote.stats().unwrap().solved, 1);
        service.shutdown(true);
        server.shutdown();
    }

    #[test]
    fn multiple_addresses_build_a_failover_client() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = ClientBuilder::new()
            .addr(dead)
            .addr(server.addr().to_string())
            .policy(FailoverPolicy {
                attempts: 4,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            })
            .build()
            .unwrap();
        let reply = client.schedule(&small_job(5), None).unwrap();
        assert!(!reply.cached);
        // Stats walk the peer list past the dead entry too.
        assert_eq!(client.stats().unwrap().solved, 1);
        server.shutdown();
    }

    #[test]
    fn builder_without_a_target_is_a_structured_error() {
        match ClientBuilder::new().build() {
            Err(ClientError::Protocol(m)) => assert!(m.contains("no address"), "{m}"),
            other => panic!("expected a builder error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn conflicting_targets_are_rejected() {
        let service = Service::start(quick()).unwrap();
        let result = ClientBuilder::new()
            .in_process(service.clone())
            .addr("127.0.0.1:1")
            .build();
        match result {
            Err(ClientError::Protocol(m)) => assert!(m.contains("not both"), "{m}"),
            other => panic!("expected a builder error, got {:?}", other.map(|_| ())),
        }
        service.shutdown(true);
    }

    #[test]
    fn builder_default_deadline_applies_when_calls_pass_none() {
        let service = Service::start(quick()).unwrap();
        let mut client = ClientBuilder::new()
            .in_process(service.clone())
            .deadline_ms(30_000)
            .build()
            .unwrap();
        // A generous default deadline must not reject a normal solve.
        let reply = client.schedule(&small_job(8), None).unwrap();
        assert!(!reply.cached);
        service.shutdown(true);
    }

    #[test]
    fn schedule_delta_works_on_every_transport() {
        let service = Service::start(quick()).unwrap();
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let ops = vec![ScenarioDelta::AddTag { x: 8.0, y: 9.0 }];
        let mut local = ClientBuilder::new()
            .in_process(service.clone())
            .build()
            .unwrap();
        let mut remote = ClientBuilder::new()
            .addr(server.addr().to_string())
            .build()
            .unwrap();
        let mut failover = ClientBuilder::new()
            .addr(server.addr().to_string())
            .policy(FailoverPolicy {
                attempts: 2,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            })
            .build()
            .unwrap();
        let job = small_job(13);
        let a_base = local.schedule(&job, None).unwrap();
        let b_base = remote.schedule(&job, None).unwrap();
        let a = local.schedule_delta(&a_base.key, &ops, None, None).unwrap();
        let b = remote
            .schedule_delta(&b_base.key, &ops, None, None)
            .unwrap();
        let c = failover
            .schedule_delta(&b_base.key, &ops, None, None)
            .unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.payload, b.payload, "one contract across transports");
        assert_eq!(b.payload, c.payload);
        // The base-miss → full-request fallback pattern, spelled out:
        let err = remote
            .schedule_delta("ffffffffffffffff", &ops, None, None)
            .unwrap_err();
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, crate::protocol::CODE_BASE_MISS);
                assert!(e.message.starts_with("base-miss"), "{}", e.message);
                // ... at which point a client re-sends the full job:
                assert!(remote.schedule(&job, None).unwrap().cached);
            }
            other => panic!("expected a base-miss, got {other:?}"),
        }
        service.shutdown(true);
        server.shutdown();
    }

    fn key_hits(service: &Service) -> u64 {
        let metrics: serde_json::Value = serde_json::from_str(&service.metrics_json()).unwrap();
        metrics["counters"]["serve.key.hit"].as_f64().unwrap_or(0.0) as u64
    }

    #[test]
    fn repeat_submissions_take_the_key_fast_path() {
        let service = Service::start(quick()).unwrap();
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let mut local = ClientBuilder::new()
            .in_process(service.clone())
            .build()
            .unwrap();
        let mut remote = ClientBuilder::new()
            .addr(server.addr().to_string())
            .build()
            .unwrap();
        let job = small_job(21);
        let cold_l = local.schedule(&job, None).unwrap();
        let warm_l = local.schedule(&job, None).unwrap();
        assert!(warm_l.cached);
        assert_eq!(warm_l.payload, cold_l.payload);
        assert_eq!(key_hits(&service), 1, "second submission went by key");

        let cold_r = remote.schedule(&job, None).unwrap();
        let warm_r = remote.schedule(&job, None).unwrap();
        assert!(warm_r.cached);
        assert_eq!(warm_r.payload, cold_r.payload);
        assert_eq!(key_hits(&server.service()), 1);

        // Deltas memoise too: a repeated delta is a key+ops hit.
        let ops = vec![ScenarioDelta::AddTag { x: 1.0, y: 2.0 }];
        let first = local.schedule_delta(&cold_l.key, &ops, None, None).unwrap();
        let again = local.schedule_delta(&cold_l.key, &ops, None, None).unwrap();
        assert!(again.cached);
        assert_eq!(again.payload, first.payload);
        assert_eq!(key_hits(&service), 2);
        service.shutdown(true);
        server.shutdown();
    }

    #[test]
    fn evicted_keys_fall_back_to_the_full_frame_transparently() {
        let service = Service::start(ServeConfig {
            workers: 2,
            queue_cap: 64,
            cache_cap: 8,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ClientBuilder::new()
            .in_process(service.clone())
            .build()
            .unwrap();
        let job = small_job(50);
        let cold = client.schedule(&job, None).unwrap();
        // Evict it: enough distinct jobs to flush an 8-entry cache.
        for seed in 51..60 {
            client.schedule(&small_job(seed), None).unwrap();
        }
        // The memoised key now misses server-side; the client re-sends
        // the full frame and the caller sees only a solved reply.
        let again = client.schedule(&job, None).unwrap();
        assert_eq!(
            again.payload, cold.payload,
            "determinism across the fallback"
        );
        assert!(!again.cached, "re-solved after eviction");
        service.shutdown(true);
    }

    #[test]
    fn dyn_serve_client_is_object_safe_across_transports() {
        let service = Service::start(quick()).unwrap();
        let mut built = ClientBuilder::new()
            .in_process(service.clone())
            .build()
            .unwrap();
        let client: &mut dyn ServeClient = &mut built;
        let cold = client.schedule(&small_job(2), None).unwrap();
        let warm = client.schedule(&small_job(2), None).unwrap();
        assert!(!cold.cached);
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        service.shutdown(true);
    }
}
