//! The zero-dependency TCP daemon.
//!
//! `std::net` only, per the vendored-offline policy. Since PR 8 the
//! daemon is event-driven: one [`crate::reactor`] thread owns every
//! connection (nonblocking sockets, per-connection read/write buffers,
//! request pipelining with strictly ordered responses) and the
//! [`Service`] worker pool stays the solve executor behind it. A queued
//! solve answers through a pending reply: the worker's fulfill wakes
//! the reactor out of `poll(2)`, and a request's `deadline_ms` bounds
//! the reactor's wait, so the `504` is sent on time. The old
//! thread-per-connection model — a parked thread and a 200 ms poll tick
//! per socket — is gone. Its client is [`crate::TcpClient`].
//!
//! Graceful shutdown is a three-step handshake: a `Shutdown` frame (or
//! [`Server::request_shutdown`]) raises the stop flag;
//! [`Server::run_until_shutdown`] pauses reactor intake and drains the
//! work queue (workers fulfill every admitted job, the reactor flushes
//! every reply); then the reactor resolves anything still unready with
//! a structured `503` frame and exits — "drain, then stop".

use crate::codec::scan_key_frame;
use crate::protocol::{
    decode_frame, encode_frame, version_gate, Request, Response, CODE_BAD_REQUEST,
    CODE_SHUTTING_DOWN, PROTOCOL_VERSION,
};
use crate::reactor::{FrameHandler, Reactor, Reply, SplicedFrame};
use crate::service::{ScheduleReply, ServeConfig, Service, ServiceError, Submission, Target};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};

struct Shared {
    service: Service,
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
}

impl Shared {
    fn request_shutdown(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        if !*stopped {
            *stopped = true;
            self.stopped_cv.notify_all();
        }
    }
}

/// The daemon's [`FrameHandler`]: admission runs inline on the event
/// thread (cache hits and errors answer immediately), queued solves
/// become pending replies that wake the reactor when they land.
struct ServeHandler {
    shared: Arc<Shared>,
}

impl ServeHandler {
    /// The one action of every schedule-producing frame — full, delta
    /// or key, scanned or decoded: gate the version, submit the target,
    /// and answer now or with a pending reply that the slot's fulfill
    /// wakes, or that answers `504` once `deadline_ms` passes.
    fn submit(
        &self,
        v: Option<u32>,
        target: Target<'_>,
        deadline_ms: Option<u64>,
        request_id: Option<&str>,
    ) -> Reply {
        if let Some(err) = version_gate(v) {
            return Reply::Now(encode_frame(&err));
        }
        let slot = match self.shared.service.submit(target, request_id) {
            Submission::Ready(result) => return schedule_reply(result),
            Submission::Queued(slot) => slot,
        };
        let service = self.shared.service.clone();
        let give_up_at = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let reply = move |waker: &Waker| {
            if let Some(result) = slot.try_take(waker) {
                return Some(schedule_frame(result));
            }
            // No deadline, or not reached yet: the worker's fulfill (or
            // the reactor, at `give_up_at`) polls again.
            if Instant::now() < give_up_at? {
                return None;
            }
            slot.abandon();
            // The worker may have fulfilled between the poll and the
            // abandon — honour that result.
            let result = slot.try_take(waker).unwrap_or_else(|| {
                let waited = format!("{:?}", deadline_ms.map(Duration::from_millis));
                Err(service.deadline_expired(&waited))
            });
            Some(schedule_frame(result))
        };
        Reply::Pending(Box::new(reply), give_up_at)
    }
}

impl FrameHandler for ServeHandler {
    fn on_line(&self, line: &str) -> Reply {
        // Fast path: a shallow scan answers ops-free key frames without
        // a full serde parse. Frames carrying ops (their deltas need
        // real decoding) and anything the scanner finds ambiguous take
        // the decode below — `Request::Key` handles both identically.
        if let Some(scan) = scan_key_frame(line) {
            if !scan.has_ops {
                let target = Target::Key {
                    key: scan.key,
                    ops: &[],
                };
                return self.submit(scan.v, target, None, scan.request_id);
            }
        }
        let request = match decode_frame::<Request>(line) {
            Ok(request) => request,
            Err(message) => {
                return Reply::Now(encode_frame(&Response::Error {
                    code: CODE_BAD_REQUEST,
                    message: format!("unparseable frame: {message}"),
                }))
            }
        };
        let service = &self.shared.service;
        let response = match request {
            Request::Schedule {
                ref job,
                deadline_ms,
                ref request_id,
                v,
            } => return self.submit(v, Target::Job(job), deadline_ms, request_id.as_deref()),
            Request::Delta {
                ref base,
                ref ops,
                deadline_ms,
                ref request_id,
                v,
            } => {
                let target = Target::Delta { base, ops };
                return self.submit(v, target, deadline_ms, request_id.as_deref());
            }
            Request::Key {
                ref key,
                ref ops,
                ref request_id,
                v,
            } => {
                let ops = ops.as_deref().unwrap_or(&[]);
                return self.submit(v, Target::Key { key, ops }, None, request_id.as_deref());
            }
            Request::Hello { v } => version_gate(Some(v)).unwrap_or(Response::HelloAck {
                v: PROTOCOL_VERSION,
            }),
            Request::Gossip { entries, v } => {
                version_gate(v).unwrap_or_else(|| Response::GossipAck {
                    applied: service.absorb(&entries),
                })
            }
            Request::Stats => Response::Stats {
                stats: service.stats(),
                metrics: service.metrics_json(),
            },
            Request::Shutdown => {
                self.shared.request_shutdown();
                Response::Bye
            }
        };
        Reply::Now(encode_frame(&response))
    }

    fn drain_fallback(&self) -> String {
        encode_frame(&Response::Error {
            code: CODE_SHUTTING_DOWN,
            message: "service stopped before the result was ready".into(),
        })
    }
}

/// Renders a schedule result answered at admission. A reply carrying
/// its payload's wire form (a key-frame hit) is assembled around the
/// cache entry's pre-rendered bytes — byte-for-byte what
/// [`schedule_frame`] would produce, pinned by differential tests so
/// the splice can never drift from serde; every other result is
/// encoded by [`schedule_frame`].
fn schedule_reply(result: Result<ScheduleReply, ServiceError>) -> Reply {
    match result {
        Ok(ScheduleReply {
            key,
            cached,
            wire: Some(wire),
            ..
        }) => Reply::Spliced(SplicedFrame {
            prefix: format!("{{\"Schedule\":{{\"key\":\"{key}\",\"cached\":{cached},\"payload\":"),
            payload: wire,
            suffix: "}}\n",
        }),
        result => Reply::Now(schedule_frame(result)),
    }
}

fn schedule_frame(result: Result<ScheduleReply, ServiceError>) -> String {
    let response = match result {
        Ok(reply) => Response::Schedule {
            key: reply.key,
            cached: reply.cached,
            payload: reply.payload.to_string(),
        },
        Err(err) => Response::Error {
            code: err.code,
            message: err.message,
        },
    };
    encode_frame(&response)
}

/// A running daemon: one reactor thread multiplexing every connection
/// over a [`Service`].
pub struct Server {
    shared: Arc<Shared>,
    reactor: Option<Reactor>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: Service::start(config)?,
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
        });
        let handler = Arc::new(ServeHandler {
            shared: Arc::clone(&shared),
        });
        let reactor = Reactor::spawn(listener, handler)?;
        Ok(Server {
            shared,
            reactor: Some(reactor),
            addr: local,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (stats, direct in-process scheduling).
    pub fn service(&self) -> Service {
        self.shared.service.clone()
    }

    /// Raises the stop flag. Non-blocking; idempotent.
    /// [`run_until_shutdown`](Self::run_until_shutdown) observes it and
    /// finishes the teardown.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by a `Shutdown` frame or
    /// [`request_shutdown`](Self::request_shutdown)), then tears down:
    /// pause intake, drain and stop the worker pool (the reactor keeps
    /// flushing results to their clients meanwhile), stop the reactor.
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
        // Drain-then-stop: every admitted job is solved and its reply
        // flushed by the still-running reactor before the loop exits.
        self.shared.service.shutdown(true);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, TcpClient};
    use crate::codec::{JobSpec, Workload};
    use crate::protocol::{GossipEntry, CODE_UPGRADE_REQUIRED};
    use rfid_model::{RadiusModel, Scenario, ScenarioKind};
    use std::io::{BufRead, BufReader, Write};

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

    fn test_server() -> Server {
        Server::start(
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                queue_cap: 8,
                cache_cap: 16,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn schedule_and_stats_over_tcp() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let cold = client.schedule(&small_job(4), None).unwrap();
        assert!(!cold.cached);
        let warm = client.schedule(&small_job(4), None).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        let (stats, metrics) = client.stats().unwrap();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.solved, 1);
        assert!(metrics.contains("serve.admission.alloc"), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn hello_negotiates_and_newer_versions_draw_426() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        assert_eq!(client.hello().unwrap(), PROTOCOL_VERSION);
        // A frame from the future: Schedule claiming v+1.
        let request = Request::Schedule {
            job: small_job(1),
            deadline_ms: None,
            request_id: None,
            v: Some(PROTOCOL_VERSION + 1),
        };
        match client.forward(&encode_frame(&request)).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, CODE_UPGRADE_REQUIRED),
            other => panic!("expected 426 error frame, got {other:?}"),
        }
        // The connection survives and serves current-version frames.
        assert!(client.schedule(&small_job(1), None).is_ok());
        server.shutdown();
    }

    #[test]
    fn v1_frames_without_version_field_still_serve() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let job_json = serde_json::to_string(&small_job(3)).unwrap();
        let line = format!(r#"{{"Schedule":{{"job":{job_json},"deadline_ms":null}}}}"#);
        match client.forward(&format!("{line}\n")).unwrap() {
            Response::Schedule { cached, .. } => assert!(!cached),
            other => panic!("expected Schedule frame, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order_on_one_connection() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        // Mix of distinct jobs and repeats (hits + coalesced followers).
        let jobs: Vec<JobSpec> = vec![
            small_job(10),
            small_job(11),
            small_job(10),
            small_job(12),
            small_job(11),
            small_job(10),
        ];
        let replies = client.schedule_batch(&jobs, None).unwrap();
        assert_eq!(replies.len(), jobs.len());
        let keys: Vec<String> = replies
            .iter()
            .map(|r| r.as_ref().unwrap().key.clone())
            .collect();
        // Positional matching: response i answers request i.
        assert_eq!(keys[0], keys[2]);
        assert_eq!(keys[0], keys[5]);
        assert_eq!(keys[1], keys[4]);
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[3]);
        // Identical payloads for identical jobs, whatever the path.
        assert_eq!(
            replies[0].as_ref().unwrap().payload,
            replies[2].as_ref().unwrap().payload
        );
        server.shutdown();
    }

    #[test]
    fn bad_frames_get_error_responses_and_the_connection_survives() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        // Hand-inject garbage, then a valid request on the same socket.
        match client.forward("this is not json\n").unwrap() {
            Response::Error { code, .. } => {
                assert_eq!(code, crate::protocol::CODE_BAD_REQUEST)
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        let reply = client.schedule(&small_job(1), None).unwrap();
        assert!(!reply.cached);
        server.shutdown();
    }

    /// Sends one raw line on a fresh connection and returns the raw
    /// reply line.
    fn raw_round_trip(addr: &str, line: &str) -> String {
        let mut raw = BufReader::new(std::net::TcpStream::connect(addr).unwrap());
        raw.get_mut().write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        raw.read_line(&mut reply).unwrap();
        reply
    }

    fn assert_bounded_400(reply: &str) {
        assert!(reply.len() < 1024, "{} byte reply", reply.len());
        match decode_frame::<Response>(reply) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, CODE_BAD_REQUEST),
            other => panic!("expected a 400 frame, got {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_frame_gets_a_400_and_the_daemon_keeps_serving() {
        let server = test_server();
        let addr = server.addr().to_string();
        // Parsed recursively, 100 000 brackets overflowed the reactor
        // thread's stack and aborted the daemon.
        let deep = format!("{}{}\n", "[".repeat(100_000), "]".repeat(100_000));
        assert_bounded_400(&raw_round_trip(&addr, &deep));
        // The same depth under an unknown field of a valid frame is
        // skipped, not built, and still stops at the nesting limit.
        let hidden = format!("{{\"Hello\":{{\"v\":4,\"x\":{}}}}}\n", "[".repeat(100_000));
        assert_bounded_400(&raw_round_trip(&addr, &hidden));
        let mut client = TcpClient::connect(&addr).unwrap();
        assert!(!client.schedule(&small_job(5), None).unwrap().cached);
        server.shutdown();
    }

    #[test]
    fn oversize_malformed_frame_gets_a_short_400() {
        let server = test_server();
        let addr = server.addr().to_string();
        // `job` must be a map; a ~600 KB integer array once came back
        // quoted whole in a 1.19 MB error message.
        let ints = vec!["1234567"; 75_000].join(",");
        let frame = format!("{{\"Schedule\":{{\"job\":[{ints}],\"deadline_ms\":null}}}}\n");
        assert!(frame.len() > 590_000);
        let reply = raw_round_trip(&addr, &frame);
        assert_bounded_400(&reply);
        assert!(reply.contains("at byte"), "{reply}");
        let mut client = TcpClient::connect(&addr).unwrap();
        assert!(client.schedule(&small_job(6), None).is_ok());
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_stops_the_daemon() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        client.schedule(&small_job(2), None).unwrap();
        client.shutdown_server().unwrap();
        // The returned run_until_shutdown must complete (daemon stopped).
        server.run_until_shutdown();
        // New connections are refused or go unanswered once stopped.
        // A refused connect (bind already released) is also fine.
        if let Ok(mut c) = TcpClient::connect(&addr) {
            assert!(c.stats().is_err());
        }
    }

    #[test]
    fn severed_socket_mid_frame_is_a_structured_disconnect() {
        // A fake "server" that reads the request, writes half a response
        // frame (no newline) and slams the connection shut.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = std::io::Read::read(&mut stream, &mut buf); // the request
            let full = crate::protocol::encode_frame(&Response::Bye);
            let cut = &full.as_bytes()[..full.len() / 2];
            stream.write_all(cut).unwrap();
            // Dropping the stream severs the connection mid-frame.
        });
        let mut client = TcpClient::connect(&addr).unwrap();
        let err = client.schedule(&small_job(1), None).unwrap_err();
        match err {
            ClientError::Disconnected(m) => assert!(m.contains("mid-frame"), "{m}"),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        fake.join().unwrap();
    }

    #[test]
    fn clean_eof_before_response_is_also_a_disconnect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            // Close without writing anything.
        });
        let mut client = TcpClient::connect(&addr).unwrap();
        let err = client.schedule(&small_job(1), None).unwrap_err();
        assert!(matches!(err, ClientError::Disconnected(_)), "{err:?}");
        fake.join().unwrap();
    }

    #[test]
    fn gossip_frames_warm_a_peer_cache() {
        let source = test_server();
        let sink = test_server();
        let mut a = TcpClient::connect(&source.addr().to_string()).unwrap();
        let cold = a.schedule(&small_job(11), None).unwrap();

        // Hand-carry the entry, as the replicator would.
        let mut b = TcpClient::connect(&sink.addr().to_string()).unwrap();
        let entries = vec![GossipEntry {
            key: cold.key.clone(),
            payload: cold.payload.to_string(),
        }];
        assert_eq!(b.gossip(&entries).unwrap(), 1, "first push applies");
        assert_eq!(b.gossip(&entries).unwrap(), 0, "re-push is idempotent");

        // The sink now answers from cache with the identical bytes.
        let warm = b.schedule(&small_job(11), None).unwrap();
        assert!(warm.cached, "gossiped entry must be a warm hit");
        assert_eq!(cold.payload, warm.payload);
        let stats = sink.service().stats();
        assert_eq!(stats.replicated_in, 1);
        source.shutdown();
        sink.shutdown();
    }

    #[test]
    fn peered_servers_replicate_automatically() {
        // sink first (to know its address), then source configured to
        // gossip at it.
        let sink = test_server();
        let source = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                queue_cap: 8,
                cache_cap: 16,
                peers: vec![sink.addr().to_string()],
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut a = TcpClient::connect(&source.addr().to_string()).unwrap();
        let cold = a.schedule(&small_job(12), None).unwrap();

        // Replication is asynchronous; poll the sink until it lands.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sink.service().stats().replicated_in == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "gossip never reached the peer"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut b = TcpClient::connect(&sink.addr().to_string()).unwrap();
        let warm = b.schedule(&small_job(12), None).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        assert!(source.service().stats().replicated_out >= 1);
        source.shutdown();
        sink.shutdown();
    }

    #[test]
    fn delta_round_trip_over_tcp() {
        use rfid_delta::ScenarioDelta;
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let base = client.schedule(&small_job(21), None).unwrap();
        let ops = vec![
            ScenarioDelta::AddTag { x: 12.0, y: 13.0 },
            ScenarioDelta::SetReaderAlive {
                reader: 3,
                alive: false,
            },
        ];
        let patched = client.schedule_delta(&base.key, &ops, None, None).unwrap();
        assert_ne!(patched.key, base.key);
        assert_ne!(patched.payload, base.payload);

        // Replay: second ask for the same delta is a warm hit with the
        // same bytes (derived-key alias).
        let again = client.schedule_delta(&base.key, &ops, None, None).unwrap();
        assert!(again.cached);
        assert_eq!(again.key, patched.key);
        assert_eq!(again.payload, patched.payload);

        // Unknown base → structured base-miss 404.
        let err = client
            .schedule_delta("1111111111111111", &ops, None, None)
            .unwrap_err();
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, crate::protocol::CODE_BASE_MISS);
                assert!(e.message.starts_with("base-miss"), "{}", e.message);
            }
            other => panic!("expected Remote base-miss, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn key_requests_answer_byte_identical_frames_to_full_requests() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let cold = client.schedule(&small_job(31), None).unwrap();

        // Raw wire bytes: the warm full-frame reply (serde-rendered)...
        let mut raw = BufReader::new(std::net::TcpStream::connect(&addr).unwrap());
        let full = Request::Schedule {
            job: small_job(31),
            deadline_ms: None,
            request_id: None,
            v: Some(PROTOCOL_VERSION),
        };
        raw.get_mut()
            .write_all(encode_frame(&full).as_bytes())
            .unwrap();
        let mut full_line = String::new();
        raw.read_line(&mut full_line).unwrap();

        // ...and the spliced key-frame reply must be identical bytes.
        let key_req = Request::Key {
            key: cold.key.clone(),
            ops: None,
            request_id: None,
            v: Some(PROTOCOL_VERSION),
        };
        raw.get_mut()
            .write_all(encode_frame(&key_req).as_bytes())
            .unwrap();
        let mut key_line = String::new();
        raw.read_line(&mut key_line).unwrap();
        assert_eq!(full_line, key_line);

        let hit = client.schedule_by_key(&cold.key, &[]).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.key, cold.key);
        assert_eq!(hit.payload, cold.payload);
        server.shutdown();
    }

    #[test]
    fn key_miss_is_a_structured_404_and_the_connection_survives() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let err = client.schedule_by_key("00000000000000aa", &[]).unwrap_err();
        match err {
            ClientError::Remote(e) => {
                assert_eq!(e.code, crate::protocol::CODE_KEY_MISS);
                assert!(e.message.starts_with("key-miss"), "{}", e.message);
            }
            other => panic!("expected Remote key-miss, got {other:?}"),
        }
        // Fall back to the full frame on the same connection...
        let reply = client.schedule(&small_job(32), None).unwrap();
        assert!(!reply.cached);
        // ...after which the key path hits.
        let hit = client.schedule_by_key(&reply.key, &[]).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.payload, reply.payload);
        server.shutdown();
    }

    #[test]
    fn key_frames_with_ops_address_the_derived_schedule() {
        use rfid_delta::ScenarioDelta;
        let server = test_server();
        let addr = server.addr().to_string();
        let mut client = TcpClient::connect(&addr).unwrap();
        let base = client.schedule(&small_job(33), None).unwrap();
        let ops = vec![ScenarioDelta::AddTag { x: 5.0, y: 6.0 }];
        // Cold derived schedule: the key+ops frame misses...
        let err = client.schedule_by_key(&base.key, &ops).unwrap_err();
        assert!(
            matches!(&err, ClientError::Remote(e) if e.message.starts_with("key-miss")),
            "{err:?}"
        );
        // ...the delta frame solves it...
        let patched = client.schedule_delta(&base.key, &ops, None, None).unwrap();
        // ...and now the same key+ops frame answers the identical bytes.
        let hit = client.schedule_by_key(&base.key, &ops).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.key, patched.key);
        assert_eq!(hit.payload, patched.payload);
        server.shutdown();
    }

    #[test]
    fn two_clients_share_the_cache() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut a = TcpClient::connect(&addr).unwrap();
        let mut b = TcpClient::connect(&addr).unwrap();
        let cold = a.schedule(&small_job(6), None).unwrap();
        let warm = b.schedule(&small_job(6), None).unwrap();
        assert!(!cold.cached);
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        server.shutdown();
    }
}
