//! Chaos harness for the durable, replicated serve layer (DESIGN.md §10).
//!
//! Every schedule is driven by a seeded, pure-data fault plan
//! ([`StorageFaults`], in the spirit of `rfid_netsim::FaultPlan`), so a
//! failing case replays exactly. The invariant under test is always the
//! same **differential byte-identity** guarantee: whatever the failure
//! schedule — `kill -9` mid-append (torn journal tail), denied writes,
//! a partitioned peer, a peer lost mid-sequence — every payload the
//! system returns must be byte-identical to the one a pristine,
//! fault-free service computes for the same job, and a restart must
//! recover exactly the longest valid journal prefix.
//!
//! Fault schedules exercised here:
//! * seeds 1–8 — crash mid-append at varying torn positions, with and
//!   without snapshot compaction in the loop (`kill -9` + restart);
//! * seeds 21–24 — seeded append denial (flaky disk, no crash);
//! * a partitioned gossip peer (connect refused, bounded retries);
//! * a peer killed mid-sequence with client-side failover.

use proptest::prelude::*;
use rfid_integration_tests::scenario;
use rfid_serve::{
    journal, DiskStorage, FailoverPolicy, FaultyStorage, JobSpec, ServeConfig, Server, Service,
    Storage, StorageFaults, TcpClient, Workload,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn job(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Workload::Generated {
        scenario: scenario(12, 140, 13.0, 6.0),
        seed,
    });
    spec.algorithm = "ghc".to_string();
    spec
}

/// A fresh scratch directory per call (unique across tests and runs).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rfid-serve-chaos-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch data dir");
    dir
}

/// One worker so appends land in request order — the fault schedules
/// below count on "the n-th append is the n-th job".
fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 32,
        cache_cap: 64,
        cache_ttl: None,
        ..ServeConfig::default()
    }
}

/// Reference payloads from a pristine, fault-free, RAM-only service.
fn reference_payloads(jobs: &[JobSpec]) -> Vec<Arc<str>> {
    let service = Service::start(config()).expect("start reference service");
    let payloads = jobs
        .iter()
        .map(|spec| {
            service
                .schedule(spec, None)
                .expect("reference solve")
                .payload
        })
        .collect();
    service.shutdown(true);
    payloads
}

/// The kill-restart differential: a seeded fault plan tears the journal
/// mid-append and crash-stops the storage (the observable state of
/// `kill -9` mid-write); the service must keep serving byte-identical
/// payloads from RAM, and a restart over the same directory must
/// recover exactly the longest valid prefix — warm for the journaled
/// jobs, cold-but-identical for the rest. Eight distinct fault seeds
/// vary the torn position and (on even seeds) put snapshot compaction
/// inside the failure window.
#[test]
fn kill_restart_replay_is_byte_identical_across_fault_seeds() {
    let jobs: Vec<JobSpec> = (0..5).map(|i| job(40 + i)).collect();
    let reference = reference_payloads(&jobs);

    for fault_seed in 1..=8u64 {
        let torn_at = 1 + (fault_seed % 5); // torn positions 1..=5
        let dir = temp_dir("kill");
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::open(&dir).expect("open data dir"));
        let plan = StorageFaults::seeded(fault_seed).with_torn_append(torn_at);
        let faulty = Arc::new(FaultyStorage::new(disk, plan));
        let mut cfg = config();
        // Even seeds compact every 2 appends, so the crash can land
        // after a snapshot+truncate cycle; odd seeds never compact.
        cfg.snapshot_every = if fault_seed % 2 == 0 { 2 } else { 0 };
        let service =
            Service::start_with_storage(cfg.clone(), Some(faulty.clone() as Arc<dyn Storage>));

        // The storage dies mid-run; serving must not.
        for (i, spec) in jobs.iter().enumerate() {
            let reply = service
                .schedule(spec, None)
                .expect("service survives storage death");
            assert_eq!(
                reply.payload.as_bytes(),
                reference[i].as_bytes(),
                "seed {fault_seed}: live payload diverged"
            );
        }
        assert!(faulty.is_crashed(), "seed {fault_seed}: plan must trigger");
        let stats = service.stats();
        assert_eq!(
            stats.journal_appends,
            torn_at - 1,
            "seed {fault_seed}: appends before the tear"
        );
        assert_eq!(
            stats.journal_append_errors,
            jobs.len() as u64 - (torn_at - 1),
            "seed {fault_seed}: the torn append and everything after fail"
        );
        // kill -9: no shutdown, no drain — just drop the handle.
        drop(service);

        // Restart over the same directory on healthy storage.
        let restarted = Service::start_with_storage(
            cfg,
            Some(Arc::new(DiskStorage::open(&dir).expect("reopen")) as Arc<dyn Storage>),
        );
        let recovered = restarted.stats().recovered_entries;
        assert_eq!(
            recovered,
            torn_at - 1,
            "seed {fault_seed}: longest valid prefix"
        );
        for (i, spec) in jobs.iter().enumerate() {
            let reply = restarted.schedule(spec, None).expect("restart solve");
            assert_eq!(
                reply.payload.as_bytes(),
                reference[i].as_bytes(),
                "seed {fault_seed}: recovered payload diverged"
            );
            assert_eq!(
                reply.cached,
                (i as u64) < recovered,
                "seed {fault_seed}: job {i} warm iff journaled before the tear"
            );
        }
        restarted.shutdown(true);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Seeded append denial (flaky disk, process survives): the journal
/// keeps the surviving subset, a restart warms exactly that subset, and
/// every payload — denied or not — stays byte-identical.
#[test]
fn denied_appends_keep_serving_and_restart_warms_the_surviving_subset() {
    let jobs: Vec<JobSpec> = (0..6).map(|i| job(90 + i)).collect();
    let reference = reference_payloads(&jobs);

    for fault_seed in 21..=24u64 {
        let dir = temp_dir("deny");
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::open(&dir).expect("open data dir"));
        let plan = StorageFaults::seeded(fault_seed).with_deny_append(0.5);
        let faulty = Arc::new(FaultyStorage::new(disk, plan));
        let service =
            Service::start_with_storage(config(), Some(faulty.clone() as Arc<dyn Storage>));

        for (i, spec) in jobs.iter().enumerate() {
            let reply = service
                .schedule(spec, None)
                .expect("denied appends are not fatal");
            assert_eq!(
                reply.payload.as_bytes(),
                reference[i].as_bytes(),
                "seed {fault_seed}"
            );
        }
        let stats = service.stats();
        assert_eq!(
            stats.journal_appends + stats.journal_append_errors,
            jobs.len() as u64,
            "seed {fault_seed}: every solve attempts an append"
        );
        service.shutdown(true);

        let restarted = Service::start_with_storage(
            config(),
            Some(Arc::new(DiskStorage::open(&dir).expect("reopen")) as Arc<dyn Storage>),
        );
        assert_eq!(
            restarted.stats().recovered_entries,
            stats.journal_appends,
            "seed {fault_seed}: recovery matches the surviving appends"
        );
        let mut warm = 0u64;
        for (i, spec) in jobs.iter().enumerate() {
            let reply = restarted.schedule(spec, None).expect("restart solve");
            assert_eq!(
                reply.payload.as_bytes(),
                reference[i].as_bytes(),
                "seed {fault_seed}"
            );
            if reply.cached {
                warm += 1;
            }
        }
        assert_eq!(
            warm, stats.journal_appends,
            "seed {fault_seed}: warm hits are exactly the journaled jobs"
        );
        restarted.shutdown(true);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A partitioned gossip peer: replication gives up after bounded
/// retries (counted, never blocking), and the partitioned daemon keeps
/// serving byte-identical payloads.
#[test]
fn partitioned_peer_drops_gossip_but_serving_continues() {
    let spec = job(7);
    let reference = reference_payloads(std::slice::from_ref(&spec));

    // Bind-then-drop reserves an address nothing listens on.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        listener.local_addr().expect("local addr").to_string()
    };
    let service = Service::start_with_storage(
        ServeConfig {
            peers: vec![dead_addr],
            ..config()
        },
        None,
    );

    let cold = service
        .schedule(&spec, None)
        .expect("partition is not fatal");
    assert_eq!(cold.payload.as_bytes(), reference[0].as_bytes());

    // The replicator's bounded retries must end in a counted drop.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.stats().replication_dropped == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "replicator never gave up on the partitioned peer"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(service.stats().replicated_out >= 1);

    let warm = service.schedule(&spec, None).expect("warm hit");
    assert!(warm.cached, "partition must not poison the local cache");
    assert_eq!(warm.payload.as_bytes(), reference[0].as_bytes());
    service.shutdown(true);
}

/// Peer loss mid-sequence: the failover client rides over the dead
/// peer to the survivor and every reply stays byte-identical.
#[test]
fn peer_loss_mid_sequence_fails_over_byte_identically() {
    let jobs: Vec<JobSpec> = (0..4).map(|i| job(70 + i)).collect();
    let reference = reference_payloads(&jobs);

    let doomed = Server::start("127.0.0.1:0", config()).expect("bind doomed peer");
    let survivor = Server::start("127.0.0.1:0", config()).expect("bind survivor");
    let mut client = TcpClient::failover(
        vec![doomed.addr().to_string(), survivor.addr().to_string()],
        FailoverPolicy {
            attempts: 4,
            backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
        },
    );

    let first = client.schedule(&jobs[0], None).expect("both peers alive");
    assert_eq!(first.payload.as_bytes(), reference[0].as_bytes());

    doomed.shutdown(); // peer loss

    for (i, spec) in jobs.iter().enumerate().skip(1) {
        let reply = client
            .schedule(spec, None)
            .expect("failover to the survivor");
        assert_eq!(
            reply.payload.as_bytes(),
            reference[i].as_bytes(),
            "job {i} after peer loss"
        );
    }
    assert!(
        survivor.service().stats().requests >= 3,
        "the survivor must have served the post-loss sequence"
    );
    survivor.shutdown();
}

/// An empty data directory is a clean cold start, not an error.
#[test]
fn empty_data_dir_is_a_clean_cold_start() {
    assert_eq!(journal::replay(b""), journal::ReplayReport::default());

    let dir = temp_dir("cold");
    let service = Service::start(ServeConfig {
        data_dir: Some(dir.clone()),
        ..config()
    })
    .expect("start over empty dir");
    assert_eq!(service.stats().recovered_entries, 0);
    let reply = service.schedule(&job(3), None).expect("cold solve");
    assert!(!reply.cached);
    service.shutdown(true);
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a journal byte stream and the byte offset where each record
/// starts.
fn journal_bytes(records: &[(u64, String)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut starts = Vec::with_capacity(records.len());
    for (key, payload) in records {
        starts.push(bytes.len());
        bytes.extend_from_slice(journal::encode_record(*key, payload).as_bytes());
    }
    (bytes, starts)
}

fn sample_records(n: usize) -> Vec<(u64, String)> {
    (0..n)
        .map(|i| (i as u64 * 7 + 1, format!("{{\"slots\":{i}}}")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property (seeded corruption offsets): flipping any bit anywhere
    /// in the journal recovers exactly the records before the corrupted
    /// one — never a partial record, never anything after it. Bit 5 is
    /// excluded because it is the ASCII case bit: `a5` → `A5` parses to
    /// the same hex value, which is equivalent, not corrupt.
    #[test]
    fn flipped_journal_byte_recovers_the_longest_valid_prefix(
        n_records in 1usize..6,
        corrupt_frac in 0.0f64..1.0,
        flip_bit in 0u8..5,
    ) {
        let records = sample_records(n_records);
        let (mut bytes, starts) = journal_bytes(&records);
        let offset = ((corrupt_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[offset] ^= 1 << flip_bit;

        let victim = starts.iter().rposition(|&s| s <= offset).expect("offset in range");
        let report = journal::replay(&bytes);
        prop_assert_eq!(report.entries.len(), victim);
        for (entry, expected) in report.entries.iter().zip(&records) {
            prop_assert_eq!(entry.0, expected.0);
            prop_assert_eq!(&entry.1, &expected.1);
        }
        prop_assert_eq!(report.dropped_bytes, bytes.len() - starts[victim]);
    }

    /// Property: truncating the journal at any byte (the torn-tail
    /// shape `kill -9` leaves) recovers exactly the records that are
    /// fully before the cut.
    #[test]
    fn truncated_journal_recovers_records_fully_before_the_cut(
        n_records in 1usize..6,
        cut_frac in 0.0f64..=1.0,
    ) {
        let records = sample_records(n_records);
        let (bytes, starts) = journal_bytes(&records);
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len());

        let complete = starts
            .iter()
            .enumerate()
            .take_while(|&(i, &s)| {
                let end = starts.get(i + 1).copied().unwrap_or(bytes.len());
                let _ = s;
                end <= cut
            })
            .count();
        let report = journal::replay(&bytes[..cut]);
        prop_assert_eq!(report.entries.len(), complete);
        for (entry, expected) in report.entries.iter().zip(&records) {
            prop_assert_eq!(entry.0, expected.0);
            prop_assert_eq!(&entry.1, &expected.1);
        }
        let tail_start = starts.get(complete).copied().unwrap_or(bytes.len()).min(cut);
        prop_assert_eq!(report.dropped_bytes, cut - tail_start);
    }
}
