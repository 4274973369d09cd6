//! Service-layer integration tests for `rfid-serve`.
//!
//! * **Differential determinism** — the same job solved cold, answered
//!   from the warm cache, requested in process from the [`Service`]
//!   and requested over TCP must all yield *byte-identical* canonical
//!   payloads, and a cache-disabled service must agree too (the payload
//!   is a pure function of the canonical job, never of cache state).
//! * **Backpressure** — a full queue answers with a structured `429`,
//!   it never hangs and never silently drops a request.
//! * **Deadlines** — an unserviced request expires with `504`, in
//!   process and over TCP, where the deadline ends the reactor's wait.
//! * **Alias convergence** — `alg2`, `ALG2` and `alg2-central` address
//!   the same cache entry.
//! * **Sharding** — the same contracts hold through the consistent-hash
//!   router: byte-identical payloads, and the fleet-wide
//!   `hits + misses + coalesced == requests` invariant summed at the
//!   router.
//! * **Request by key** — a protocol-v4 `Key` frame answers the exact
//!   bytes a full frame answers (direct, derived-delta and routed), and
//!   a key the server does not hold is a structured `404` key-miss that
//!   leaves the connection serviceable.

use rfid_integration_tests::scenario;
use rfid_serve::{
    JobSpec, Router, RouterConfig, ScenarioDelta, ServeConfig, Server, Service, TcpClient, Workload,
};
use std::time::Duration;

fn job(algorithm: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Workload::Generated {
        scenario: scenario(16, 220, 13.0, 6.0),
        seed,
    });
    spec.algorithm = algorithm.to_string();
    spec
}

#[test]
fn payloads_identical_across_cold_warm_inproc_and_tcp() {
    let spec = job("ghc", 7);

    // Cold solve, then warm cache, on one service.
    let service = Service::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        cache_cap: 64,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let cold = service.schedule(&spec, None).expect("cold solve");
    assert!(!cold.cached, "first request must miss");
    let warm = service.schedule(&spec, None).expect("warm hit");
    assert!(warm.cached, "second request must hit");
    assert_eq!(cold.key, warm.key);
    assert_eq!(cold.payload.as_bytes(), warm.payload.as_bytes());

    // In process, from a clone of the same service handle.
    let inproc = service.clone().schedule(&spec, None).expect("in-process");
    assert_eq!(cold.payload.as_bytes(), inproc.payload.as_bytes());

    // A cache-disabled service must produce the same bytes: the payload
    // is a function of the job, not of cache state.
    let uncached_service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        cache_cap: 0,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let uncached = uncached_service.schedule(&spec, None).expect("uncached");
    assert!(!uncached.cached);
    assert_eq!(cold.key, uncached.key, "content key is cache-independent");
    assert_eq!(cold.payload.as_bytes(), uncached.payload.as_bytes());
    uncached_service.shutdown(true);

    // TCP round trip against a fresh daemon.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            cache_cap: 64,
            cache_ttl: None,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut tcp = TcpClient::connect(&addr).expect("connect");
    let remote = tcp.schedule(&spec, None).expect("tcp solve");
    assert_eq!(cold.key, remote.key);
    assert_eq!(cold.payload.as_bytes(), remote.payload.as_bytes());

    // The parsed outcome agrees with itself across transports.
    let a = cold.outcome().expect("parse cold");
    let b = remote.outcome().expect("parse tcp");
    assert_eq!(a, b);
    assert_eq!(a.slots, a.slot_summaries.len());
    server.shutdown();
    service.shutdown(true);
}

#[test]
fn algorithm_aliases_share_one_cache_entry() {
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        cache_cap: 32,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let cold = service.schedule(&job("alg2", 3), None).expect("cold");
    assert!(!cold.cached);
    for alias in ["ALG2", "central", "alg2-central"] {
        let reply = service.schedule(&job(alias, 3), None).expect(alias);
        assert!(reply.cached, "{alias} must hit the shared entry");
        assert_eq!(cold.key, reply.key, "{alias}");
        assert_eq!(cold.payload.as_bytes(), reply.payload.as_bytes(), "{alias}");
    }
    service.shutdown(true);
}

#[test]
fn full_queue_rejects_with_structured_429() {
    // No workers: enqueued jobs are never solved, so the queue fills and
    // stays full while we probe it.
    let service = Service::start(ServeConfig {
        workers: 0,
        queue_cap: 2,
        cache_cap: 0,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let occupants: Vec<_> = (0..2)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                service.schedule(&job("ghc", 100 + i), Some(Duration::from_millis(1500)))
            })
        })
        .collect();
    // Wait until both occupants are actually queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.stats().queue_depth < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "occupants never queued"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let err = service
        .schedule(&job("ghc", 999), Some(Duration::from_millis(200)))
        .expect_err("full queue must reject");
    assert_eq!(err.code, 429, "{err:?}");
    assert_eq!(service.stats().rejected_full, 1);
    // The occupants come back too — expired, not hung, not dropped.
    for t in occupants {
        let err = t.join().expect("no panic").expect_err("no workers");
        assert_eq!(err.code, 504, "{err:?}");
    }
    assert_eq!(service.stats().deadline_expired, 2);
    service.shutdown(false);
}

#[test]
fn unserviced_request_expires_with_504() {
    let service = Service::start(ServeConfig {
        workers: 0,
        queue_cap: 4,
        cache_cap: 0,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let err = service
        .schedule(&job("ghc", 1), Some(Duration::from_millis(50)))
        .expect_err("no workers, must expire");
    assert_eq!(err.code, 504, "{err:?}");
    service.shutdown(false);
}

#[test]
fn deadline_over_tcp_expires_with_504_and_is_counted() {
    // No workers: the reactor's wait must end at the request's deadline,
    // since no fulfill will ever wake it.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 0,
            queue_cap: 4,
            cache_cap: 0,
            cache_ttl: None,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut tcp = TcpClient::connect(&server.addr().to_string()).expect("connect");
    // The client has no read timeout: wait for the reply on a channel.
    let (tx, rx) = std::sync::mpsc::channel();
    let asker = std::thread::spawn(move || {
        let reply = tcp.schedule(&job("ghc", 1), Some(50));
        let _ = tx.send((tcp, reply));
    });
    let (mut tcp, reply) = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the 504 arrives within 2 s");
    asker.join().expect("no panic");
    match reply {
        Err(rfid_serve::ClientError::Remote(remote)) => assert_eq!(remote.code, 504, "{remote:?}"),
        other => panic!("expected remote 504, got {other:?}"),
    }
    let (stats, _) = tcp.stats().expect("same connection serves stats");
    assert_eq!(stats.deadline_expired, 1);
    server.shutdown();
}

#[test]
fn unknown_algorithm_is_404_locally_and_over_tcp() {
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        cache_cap: 4,
        cache_ttl: None,
        ..ServeConfig::default()
    })
    .expect("start service");
    let err = service
        .schedule(&job("nope", 0), None)
        .expect_err("unknown algorithm");
    assert_eq!(err.code, 404, "{err:?}");
    assert!(err.message.contains("alg2-central"), "{err:?}");
    service.shutdown(true);

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut tcp = TcpClient::connect(&addr).expect("connect");
    match tcp.schedule(&job("nope", 0), None) {
        Err(rfid_serve::ClientError::Remote(remote)) => {
            assert_eq!(remote.code, 404, "{remote:?}")
        }
        other => panic!("expected remote 404, got {other:?}"),
    }
    server.shutdown();
}

fn shard_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 32,
        cache_cap: 64,
        cache_ttl: None,
        ..ServeConfig::default()
    }
}

#[test]
fn payloads_identical_through_the_router_and_invariant_holds_fleet_wide() {
    let shard_a = Server::start("127.0.0.1:0", shard_config()).expect("shard a");
    let shard_b = Server::start("127.0.0.1:0", shard_config()).expect("shard b");
    let standalone = Server::start("127.0.0.1:0", shard_config()).expect("standalone");
    let router = Router::start(
        "127.0.0.1:0",
        RouterConfig {
            shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        },
    )
    .expect("start router");

    let mut via_router = TcpClient::connect(&router.addr().to_string()).expect("router client");
    let mut direct = TcpClient::connect(&standalone.addr().to_string()).expect("direct client");

    // 20 distinct jobs, each requested twice through the router and once
    // against an unsharded daemon: same key, same bytes, every path.
    let jobs: Vec<JobSpec> = (0..20).map(|seed| job("ghc", seed)).collect();
    for spec in &jobs {
        let cold = via_router.schedule(spec, None).expect("cold via router");
        assert!(!cold.cached, "first routed request must miss");
        let warm = via_router.schedule(spec, None).expect("warm via router");
        assert!(warm.cached, "second routed request must hit its shard");
        let local = direct.schedule(spec, None).expect("direct");
        assert_eq!(cold.key, warm.key);
        assert_eq!(cold.key, local.key, "content key is topology-independent");
        assert_eq!(cold.payload.as_bytes(), warm.payload.as_bytes());
        assert_eq!(
            cold.payload.as_bytes(),
            local.payload.as_bytes(),
            "determinism contract holds through the router"
        );
    }

    // The routed load actually split across both shards.
    let routed = router.routed_per_shard();
    assert_eq!(routed.iter().sum::<u64>(), 40);
    assert!(
        routed.iter().all(|&n| n > 0),
        "both shards must take load: {routed:?}"
    );
    assert_eq!(router.forward_errors(), 0);

    // Fleet-wide counters summed at the router keep the queue invariant.
    let (stats, _metrics) = via_router.stats().expect("aggregated stats");
    assert_eq!(stats.requests, 40);
    assert_eq!(
        stats.cache_hits + stats.cache_misses + stats.coalesced,
        stats.requests,
        "hits + misses + coalesced == requests must hold through the router"
    );
    assert_eq!(stats.cache_hits, 20);
    assert_eq!(stats.solved, 20);

    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
    standalone.shutdown();
}

#[test]
fn key_requests_are_byte_identical_and_key_misses_are_structured() {
    let server = Server::start("127.0.0.1:0", shard_config()).expect("bind loopback");
    let mut tcp = TcpClient::connect(&server.addr().to_string()).expect("connect");

    // Full frame first, then the same schedule addressed by key alone:
    // the spliced fast-path reply must carry the exact same bytes.
    let spec = job("ghc", 11);
    let cold = tcp.schedule(&spec, None).expect("cold");
    let by_key = tcp.schedule_by_key(&cold.key, &[]).expect("by key");
    assert!(by_key.cached, "key request must answer from cache");
    assert_eq!(cold.key, by_key.key);
    assert_eq!(
        cold.payload.as_bytes(),
        by_key.payload.as_bytes(),
        "key path must answer the full frame's bytes"
    );

    // A previously solved delta is addressable as `{key, ops}` under
    // the derived content key, with the same byte guarantee.
    let ops = vec![ScenarioDelta::AddTag { x: 42.0, y: 17.0 }];
    let derived = tcp
        .schedule_delta(&cold.key, &ops, None, None)
        .expect("delta solve");
    let derived_by_key = tcp.schedule_by_key(&cold.key, &ops).expect("delta by key");
    assert!(derived_by_key.cached);
    assert_eq!(derived.key, derived_by_key.key);
    assert_eq!(
        derived.payload.as_bytes(),
        derived_by_key.payload.as_bytes()
    );

    // A non-resident key is a structured 404 key-miss — and the
    // connection stays serviceable afterwards.
    match tcp.schedule_by_key("00000000000000aa", &[]) {
        Err(rfid_serve::ClientError::Remote(remote)) => {
            assert_eq!(remote.code, 404, "{remote:?}");
            assert!(remote.message.starts_with("key-miss"), "{remote:?}");
        }
        other => panic!("expected a remote key-miss, got {other:?}"),
    }
    let again = tcp.schedule_by_key(&cold.key, &[]).expect("still serving");
    assert_eq!(cold.payload.as_bytes(), again.payload.as_bytes());
    server.shutdown();
}

#[test]
fn key_requests_through_the_router_match_the_owning_shard() {
    let shard_a = Server::start("127.0.0.1:0", shard_config()).expect("shard a");
    let shard_b = Server::start("127.0.0.1:0", shard_config()).expect("shard b");
    let router = Router::start(
        "127.0.0.1:0",
        RouterConfig {
            shards: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        },
    )
    .expect("start router");
    let mut via_router = TcpClient::connect(&router.addr().to_string()).expect("connect");

    // Enough distinct jobs to land on both shards: the router must
    // forward each key frame to the shard that cached the schedule and
    // relay its spliced bytes untouched.
    let jobs: Vec<JobSpec> = (0..12).map(|seed| job("ghc", 30 + seed)).collect();
    for spec in &jobs {
        let cold = via_router.schedule(spec, None).expect("cold via router");
        let by_key = via_router
            .schedule_by_key(&cold.key, &[])
            .expect("by key via router");
        assert!(by_key.cached, "routed key request must hit the owner");
        assert_eq!(cold.key, by_key.key);
        assert_eq!(
            cold.payload.as_bytes(),
            by_key.payload.as_bytes(),
            "byte-for-byte through the router"
        );
    }
    let routed = router.routed_per_shard();
    assert!(
        routed.iter().all(|&n| n > 0),
        "both shards must take load: {routed:?}"
    );
    assert_eq!(router.forward_errors(), 0);

    // Key hits count as cache hits in the fleet-wide invariant.
    let mut stats_client = TcpClient::connect(&router.addr().to_string()).expect("stats");
    let (stats, _metrics) = stats_client.stats().expect("aggregated stats");
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.cache_hits, 12);
    assert_eq!(
        stats.cache_hits + stats.cache_misses + stats.coalesced,
        stats.requests,
        "hits + misses + coalesced == requests must hold with key hits"
    );

    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn severed_mid_pipeline_surfaces_after_the_delivered_responses() {
    use std::io::{Read, Write};

    // A fake server that accepts a pipelined batch of three requests,
    // answers the first completely, starts the second, and dies
    // mid-frame. The client must get response 1 cleanly and then a
    // structured mid-frame disconnect — not a hang, not a raw error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 64 * 1024];
        let mut seen = Vec::new();
        // Read until all three request lines have arrived.
        while seen.iter().filter(|&&b| b == b'\n').count() < 3 {
            let n = stream.read(&mut buf).expect("read requests");
            if n == 0 {
                break;
            }
            seen.extend_from_slice(&buf[..n]);
        }
        let first = concat!(
            r#"{"Schedule":{"key":"00000000000000ff","cached":false,"payload":"{}"}}"#,
            "\n"
        );
        let second = r#"{"Schedule":{"key":"00000000000001ff","ca"#; // cut mid-frame
        stream.write_all(first.as_bytes()).expect("reply 1");
        stream
            .write_all(second.as_bytes())
            .expect("half of reply 2");
        // Dropping the stream severs the connection with reply 2 torn
        // and reply 3 never written.
    });

    let mut client = TcpClient::connect(&addr).expect("connect");
    let jobs: Vec<JobSpec> = (0..3).map(|seed| job("ghc", seed)).collect();
    let err = client
        .schedule_batch(&jobs, None)
        .expect_err("torn batch must fail");
    match err {
        rfid_serve::ClientError::Disconnected(m) => {
            assert!(m.contains("mid-frame"), "severed mid-pipeline: {m}")
        }
        other => panic!("expected a mid-frame disconnect, got {other:?}"),
    }
    fake.join().expect("fake server");
}
