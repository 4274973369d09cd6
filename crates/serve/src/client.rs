//! The one serve client: [`TcpClient`], blocking JSON-lines over TCP.
//!
//! [`TcpClient::connect`] talks to one daemon (or router) over one
//! eagerly opened connection and makes one attempt per call.
//! [`TcpClient::failover`] walks a peer list instead: it connects
//! lazily, and a transport failure (refused connect, write error,
//! severed or missing response) or a `503` from a draining server
//! retries the call on the next peer, with capped exponential backoff
//! and a bounded number of attempts. Every attempt of one call carries
//! the same request id, so servers count retries as dedups rather than
//! fresh demand. Any other structured error is final: content
//! addressing makes a request a pure function, so the next peer would
//! answer the same. Either way the connection is kept between calls.
//!
//! The CLI, the replicator's gossip delivery and the router's
//! forwarders all use this client; the latter two through failover
//! clients over one peer, so a dropped connection is reopened on retry.

use crate::codec::JobSpec;
use crate::protocol::{
    encode_frame, read_frame, FrameRead, GossipEntry, Request, Response, ServiceStats,
    CODE_SHUTTING_DOWN, PROTOCOL_VERSION,
};
use crate::service::{ScheduleReply, ServiceError};
use rfid_delta::ScenarioDelta;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Why a [`TcpClient`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The server answered with a structured error frame.
    Remote(ServiceError),
    /// The server answered with an unexpected or unparseable frame.
    Protocol(String),
    /// The connection ended before a complete response arrived —
    /// clean EOF with the request outstanding, or severed mid-frame.
    /// Structured (and retryable via failover) rather than a raw io
    /// error: the peer died, the request may be replayed elsewhere.
    Disconnected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Disconnected(m) => write!(f, "server disconnected: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// Retry policy of a [`TcpClient::failover`] client (attempts span the
/// whole call, not one peer).
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

/// Process-wide source of distinct client ids (no wall clock needed).
static CLIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

type Conn = BufReader<TcpStream>;

/// A blocking JSON-lines client over one connection at a time, to one
/// peer or failing over across several.
pub struct TcpClient {
    peers: Vec<String>,
    policy: FailoverPolicy,
    /// Index in `peers` of `conn`'s peer, or of the next one to dial.
    peer: usize,
    conn: Option<Conn>,
    /// For calls without a request id of their own: this client's id
    /// and the number of calls it has named. `None` on a one-peer
    /// client, which sends only the ids its caller passes.
    ids: Option<(String, u64)>,
}

fn open(addr: &str) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

fn read_response(conn: &mut Conn) -> Result<Response, ClientError> {
    match read_frame::<Response, _>(conn)? {
        FrameRead::Frame(response) => Ok(response),
        FrameRead::Malformed(m) => Err(ClientError::Protocol(m)),
        FrameRead::Eof => Err(ClientError::Disconnected(
            "connection closed before response".into(),
        )),
        FrameRead::SeveredMidFrame { partial_bytes } => Err(ClientError::Disconnected(format!(
            "connection severed mid-frame ({partial_bytes} bytes of a partial response)"
        ))),
    }
}

fn unexpected(expected: &str, got: Response) -> ClientError {
    ClientError::Protocol(format!("expected {expected} frame, got {got:?}"))
}

/// Decodes the reply to a schedule-producing request: a `Schedule` frame
/// is the reply, an `Error` frame the service's structured error (the
/// inner `Err`), and any other frame a protocol violation (the outer).
fn schedule_result(response: Response) -> Result<Result<ScheduleReply, ServiceError>, ClientError> {
    match response {
        Response::Schedule {
            key,
            cached,
            payload,
        } => Ok(Ok(ScheduleReply {
            key,
            cached,
            payload: payload.into(),
            wire: None,
        })),
        Response::Error { code, message } => Ok(Err(ServiceError { code, message })),
        other => Err(unexpected("Schedule", other)),
    }
}

impl TcpClient {
    /// Connects to one running daemon (or router): one attempt per call.
    pub fn connect(addr: &str) -> std::io::Result<TcpClient> {
        Ok(TcpClient {
            peers: vec![addr.to_string()],
            policy: FailoverPolicy {
                attempts: 1,
                ..FailoverPolicy::default()
            },
            peer: 0,
            conn: Some(open(addr)?),
            ids: None,
        })
    }

    /// A client that retries each call across `peers`, in order, under
    /// `policy`. Connects lazily, on the first call:
    ///
    /// ```no_run
    /// use rfid_serve::{FailoverPolicy, TcpClient};
    /// # let job: rfid_serve::JobSpec = unimplemented!();
    /// let peers = vec!["10.0.0.1:7400".to_string(), "10.0.0.2:7400".to_string()];
    /// let mut client = TcpClient::failover(peers, FailoverPolicy::default());
    /// let reply = client.schedule(&job, Some(2_000)).unwrap();
    /// ```
    ///
    /// # Panics
    /// When `peers` is empty.
    pub fn failover(peers: Vec<String>, policy: FailoverPolicy) -> TcpClient {
        assert!(!peers.is_empty(), "failover needs at least one peer");
        let id = format!(
            "c{}-{}",
            std::process::id(),
            CLIENT_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        TcpClient {
            peers,
            policy,
            peer: 0,
            conn: None,
            ids: Some((id, 0)),
        }
    }

    /// The caller's request id, else on a failover client a fresh one.
    fn request_id(&mut self, request_id: Option<&str>) -> Option<String> {
        match (request_id, &mut self.ids) {
            (Some(id), _) => Some(id.to_string()),
            (None, Some((client, calls))) => {
                *calls += 1;
                Some(format!("{client}-{}", *calls - 1))
            }
            (None, None) => None,
        }
    }

    /// One call under the client's policy: write `frames`, then `read`
    /// the reply. A transport failure or a `503` drops the connection
    /// and retries on the next peer after the backoff; a protocol error
    /// drops it and is final; any other error frame is final and keeps
    /// it.
    fn call<T>(
        &mut self,
        frames: &str,
        mut read: impl FnMut(&mut Conn) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last = None;
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                let backoff = self
                    .policy
                    .backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(backoff.min(self.policy.max_backoff));
            }
            let conn = match &mut self.conn {
                Some(conn) => conn,
                None => match open(&self.peers[self.peer]) {
                    Ok(conn) => self.conn.insert(conn),
                    Err(e) => {
                        self.peer = (self.peer + 1) % self.peers.len();
                        last = Some(e.into());
                        continue;
                    }
                },
            };
            let result = conn
                .get_mut()
                .write_all(frames.as_bytes())
                .map_err(ClientError::from)
                .and_then(|()| read(conn));
            match result {
                Err(ClientError::Remote(e)) if e.code != CODE_SHUTTING_DOWN => {
                    return Err(ClientError::Remote(e))
                }
                Err(e @ ClientError::Protocol(_)) => {
                    self.conn = None;
                    return Err(e);
                }
                Err(e) => {
                    self.conn = None;
                    self.peer = (self.peer + 1) % self.peers.len();
                    last = Some(e);
                }
                ok => return ok,
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("no attempt was made".into())))
    }

    /// Forwards one raw, newline-terminated request line and returns the
    /// response frame as sent, error frames included (the router's
    /// hop). Only transport failures retry.
    pub fn forward(&mut self, frame: &str) -> Result<Response, ClientError> {
        self.call(frame, read_response)
    }

    /// One typed round trip; an error frame becomes
    /// [`ClientError::Remote`].
    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.call(&encode_frame(request), |conn| match read_response(conn)? {
            Response::Error { code, message } => {
                Err(ClientError::Remote(ServiceError { code, message }))
            }
            response => Ok(response),
        })
    }

    fn schedule_request(&mut self, request: &Request) -> Result<ScheduleReply, ClientError> {
        schedule_result(self.round_trip(request)?)?.map_err(ClientError::Remote)
    }

    /// Declares this client's protocol version; returns the server's.
    /// A server that cannot serve us answers a structured 426 error.
    pub fn hello(&mut self) -> Result<u32, ClientError> {
        match self.round_trip(&Request::Hello {
            v: PROTOCOL_VERSION,
        })? {
            Response::HelloAck { v } => Ok(v),
            other => Err(unexpected("HelloAck", other)),
        }
    }

    /// Schedules one job, optionally bounded by a server-side deadline.
    pub fn schedule(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<ScheduleReply, ClientError> {
        self.schedule_with_id(job, deadline_ms, None)
    }

    /// [`schedule`](Self::schedule) carrying a client request id, so a
    /// retry of this idempotent request can be deduplicated server-side.
    pub fn schedule_with_id(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        let request = Request::Schedule {
            job: job.clone(),
            deadline_ms,
            request_id: self.request_id(request_id),
            v: Some(PROTOCOL_VERSION),
        };
        self.schedule_request(&request)
    }

    /// Schedules a **delta** job: `ops` applied to the scenario the
    /// server already knows under the `base` content key. A server that
    /// never saw the base answers a structured `404` whose message
    /// starts with `base-miss` — the caller's cue to re-send the full
    /// scenario. A base-miss is final, not failed over: a peer that
    /// never saw the base answers it deterministically.
    pub fn schedule_delta(
        &mut self,
        base: &str,
        ops: &[ScenarioDelta],
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Result<ScheduleReply, ClientError> {
        let request = Request::Delta {
            base: base.to_string(),
            ops: ops.to_vec(),
            deadline_ms,
            request_id: self.request_id(request_id),
            v: Some(PROTOCOL_VERSION),
        };
        self.schedule_request(&request)
    }

    /// Requests a schedule by **content key alone** (protocol v4): the
    /// server answers from cache without touching the scenario codec.
    /// Non-empty `ops` address the delta derived from `key` (cached on
    /// the base key's node). A key the server does not hold answers a
    /// structured `404` whose message starts with `key-miss` — the cue
    /// to fall back to the full `Schedule`/`Delta` frame.
    pub fn schedule_by_key(
        &mut self,
        key: &str,
        ops: &[ScenarioDelta],
    ) -> Result<ScheduleReply, ClientError> {
        let request = Request::Key {
            key: key.to_string(),
            ops: (!ops.is_empty()).then(|| ops.to_vec()),
            request_id: self.request_id(None),
            v: Some(PROTOCOL_VERSION),
        };
        self.schedule_request(&request)
    }

    /// Pipelines a batch of schedule requests on one connection: all
    /// frames are written before any response is read, and the server
    /// answers them strictly in request order (the reactor's ordering
    /// guarantee). Per-request application errors come back as inner
    /// `Err`s; a transport failure fails (or fails over) the whole
    /// batch.
    pub fn schedule_batch(
        &mut self,
        jobs: &[JobSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Result<ScheduleReply, ServiceError>>, ClientError> {
        let mut batch = String::new();
        for job in jobs {
            batch.push_str(&encode_frame(&Request::Schedule {
                job: job.clone(),
                deadline_ms,
                request_id: None,
                v: Some(PROTOCOL_VERSION),
            }));
        }
        self.call(&batch, |conn| {
            jobs.iter()
                .map(|_| schedule_result(read_response(conn)?))
                .collect()
        })
    }

    /// Pushes cache entries to a peer daemon; returns how many the peer
    /// newly applied. The replicator's delivery path.
    pub fn gossip(&mut self, entries: &[GossipEntry]) -> Result<u64, ClientError> {
        let request = Request::Gossip {
            entries: entries.to_vec(),
            v: Some(PROTOCOL_VERSION),
        };
        match self.round_trip(&request)? {
            Response::GossipAck { applied } => Ok(applied),
            other => Err(unexpected("GossipAck", other)),
        }
    }

    /// Fetches service counters and the recorder's metrics snapshot
    /// (fleet-wide when the peer is a router).
    pub fn stats(&mut self) -> Result<(ServiceStats, String), ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { stats, metrics } => Ok((stats, metrics)),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// Asks the daemon to shut down gracefully; resolves once the server
    /// acknowledges with `Bye`.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Workload;
    use crate::server::Server;
    use crate::service::{ServeConfig, Service, Target};
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

    /// An address nothing listens on: a bound-then-dropped listener.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    #[test]
    fn in_process_and_tcp_transports_return_identical_bytes() {
        let service = Service::start(quick()).unwrap();
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let mut remote = TcpClient::connect(&server.addr().to_string()).unwrap();
        let a = service.schedule(&small_job(3), None).unwrap();
        let b = remote.schedule(&small_job(3), None).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.payload, b.payload, "one contract across transports");
        assert_eq!(service.stats().solved, 1);
        assert_eq!(remote.stats().unwrap().0.solved, 1);
        service.shutdown(true);
        server.shutdown();
    }

    #[test]
    fn multiple_addresses_build_a_failover_client() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let mut client = TcpClient::failover(
            vec![dead_addr(), server.addr().to_string()],
            FailoverPolicy {
                attempts: 4,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            },
        );
        let reply = client.schedule(&small_job(5), None).unwrap();
        assert!(!reply.cached);
        // Stats walk the peer list past the dead entry too.
        assert_eq!(client.stats().unwrap().0.solved, 1);
        server.shutdown();
    }

    #[test]
    fn schedule_delta_works_on_every_transport() {
        let service = Service::start(quick()).unwrap();
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let ops = vec![ScenarioDelta::AddTag { x: 8.0, y: 9.0 }];
        let mut remote = TcpClient::connect(&server.addr().to_string()).unwrap();
        let mut failover = TcpClient::failover(
            vec![server.addr().to_string()],
            FailoverPolicy {
                attempts: 2,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
        );
        let job = small_job(13);
        let a_base = service.schedule(&job, None).unwrap();
        let b_base = remote.schedule(&job, None).unwrap();
        let delta = Target::Delta {
            base: &a_base.key,
            ops: &ops,
        };
        let a = service.request(delta, None, None).unwrap();
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

    #[test]
    fn failover_skips_a_dead_peer() {
        let server = Server::start("127.0.0.1:0", quick()).unwrap();
        let mut client =
            TcpClient::failover(vec![dead_addr(), server.addr().to_string()], fast_policy());
        let reply = client.schedule(&small_job(1), None).unwrap();
        assert!(!reply.cached);
        server.shutdown();
    }

    #[test]
    fn failover_gives_up_after_bounded_attempts() {
        let mut client = TcpClient::failover(
            vec![dead_addr()],
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
        let mut client = TcpClient::failover(vec![server.addr().to_string()], fast_policy());
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
}
