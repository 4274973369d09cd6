//! The one durable file: an append-only, checksummed journal of cache
//! inserts, and the [`DurableStore`] that appends to it, compacts it and
//! recovers from it. No other module knows the on-disk format.
//!
//! Format: one JSON record per line —
//! `{"crc":"<16 hex>","key":"<16 hex>","payload":"<canonical outcome>"}`
//! — where `crc` is FNV-1a 64 over `key`, a separator byte and the
//! payload. The line is written with a **single** [`Storage::append`]
//! call, so a crash mid-write can only tear the *tail* of the file.
//! Recovery ([`replay`]) therefore keeps the **longest valid prefix**:
//! it stops at the first record that fails to parse or whose checksum
//! disagrees (torn tail, flipped byte, truncation) and reports how many
//! bytes it dropped. Replay is idempotent — records are keyed inserts of
//! pure functions of the key — so recovery keeps each key once, at its
//! first position, with its last payload.
//!
//! One rewrite replaces the whole file through a single
//! [`Storage::replace`] (temp file, fsync, rename), so a crash leaves
//! the old journal or the new one, never a mix. It serves two ends:
//! compaction, which after every `snapshot_every` successful appends
//! rewrites the journal to one record per live cache entry, sorted by
//! key; and repair, which cuts a torn tail found at recovery so that
//! records appended after a restart never sit behind a torn one.

use crate::codec::fnv1a64;
use crate::storage::Storage;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal file name under the data directory — the only durable file.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One journal line (serde field order is irrelevant — records are
/// parsed, not byte-compared).
#[derive(Debug, Serialize, Deserialize)]
struct Record {
    crc: String,
    key: String,
    payload: String,
}

/// Checksum binding a record's key to its payload.
fn record_crc(key_hex: &str, payload: &str) -> u64 {
    let mut bytes = Vec::with_capacity(key_hex.len() + 1 + payload.len());
    bytes.extend_from_slice(key_hex.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    fnv1a64(&bytes)
}

/// Renders one journal line (including the trailing newline).
pub fn encode_record(key: u64, payload: &str) -> String {
    let key_hex = format!("{key:016x}");
    let record = Record {
        crc: format!("{:016x}", record_crc(&key_hex, payload)),
        key: key_hex,
        payload: payload.to_string(),
    };
    let mut line = serde_json::to_string(&record).expect("record serialisation cannot fail");
    line.push('\n');
    line
}

/// Parses and verifies one journal line. `None` = corrupt.
fn decode_record(line: &str) -> Option<(u64, String)> {
    let record: Record = serde_json::from_str(line).ok()?;
    let crc = u64::from_str_radix(&record.crc, 16).ok()?;
    if crc != record_crc(&record.key, &record.payload) {
        return None;
    }
    let key = u64::from_str_radix(&record.key, 16).ok()?;
    Some((key, record.payload))
}

/// What [`replay`] found in a journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Valid records, in append order (later duplicates of a key win).
    pub entries: Vec<(u64, String)>,
    /// Bytes dropped after the longest valid prefix (torn tail, flipped
    /// checksum byte, garbage).
    pub dropped_bytes: usize,
}

/// Replays journal bytes to the longest valid prefix: parsing stops at
/// the first record that is torn (no trailing newline), malformed, or
/// checksum-corrupt; everything after it is counted as dropped.
pub fn replay(bytes: &[u8]) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(rel) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            // Torn tail: a record without its newline.
            report.dropped_bytes = bytes.len() - offset;
            return report;
        };
        let line = &bytes[offset..offset + rel];
        match std::str::from_utf8(line).ok().and_then(decode_record) {
            Some(entry) => report.entries.push(entry),
            None => {
                report.dropped_bytes = bytes.len() - offset;
                return report;
            }
        }
        offset += rel + 1;
    }
    report
}

/// Counters of the durability layer, exported through the service stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Journal records appended successfully.
    pub appends: u64,
    /// Appends that failed (denied/torn I/O) — the entry stayed
    /// RAM-only; the service keeps serving.
    pub append_errors: u64,
    /// Compactions that rewrote the journal.
    pub compactions: u64,
}

/// What startup recovery found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Recovered `(key, payload)` pairs: each key once, at its first
    /// position, with its last payload.
    pub entries: Vec<(u64, String)>,
    /// Valid journal records replayed.
    pub journal_records: usize,
    /// Journal bytes dropped after the longest valid prefix (and cut
    /// from the file by the repair rewrite).
    pub dropped_bytes: usize,
    /// Human-readable recovery problems (dead disk, failed repair) —
    /// recovery is best-effort, so these are reported, not thrown.
    pub errors: Vec<String>,
}

/// The journal, its compaction and its recovery over an injectable
/// [`Storage`].
pub struct DurableStore {
    storage: Arc<dyn Storage>,
    snapshot_every: usize,
    /// Appends since the last compaction; the lock also serialises
    /// appends with the rewrites.
    appends_since_compaction: Mutex<usize>,
    appends: AtomicU64,
    append_errors: AtomicU64,
    compactions: AtomicU64,
}

impl DurableStore {
    /// A store journaling through `storage`, compacting every
    /// `snapshot_every` appends (`0` = never compact).
    pub fn new(storage: Arc<dyn Storage>, snapshot_every: usize) -> DurableStore {
        DurableStore {
            storage,
            snapshot_every,
            appends_since_compaction: Mutex::new(0),
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Replays the journal into the recovered entry list. Tolerates a
    /// missing file (cold start) and a dead disk (reported), and keeps
    /// the longest valid prefix of a torn or corrupt journal — then
    /// rewrites the file to that prefix, so later appends follow a
    /// valid record instead of the torn one.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let bytes = match self.storage.read(JOURNAL_FILE) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return report,
            Err(e) => {
                report.errors.push(format!("journal read: {e}"));
                return report;
            }
        };
        let replayed = replay(&bytes);
        report.journal_records = replayed.entries.len();
        report.dropped_bytes = replayed.dropped_bytes;
        // A key keeps the position it was first seen at; the last
        // payload wins (they are identical anyway — the payload is a
        // pure function of the key).
        let mut position: HashMap<u64, usize> = HashMap::with_capacity(replayed.entries.len());
        for (key, payload) in replayed.entries {
            match position.get(&key) {
                Some(&i) => report.entries[i].1 = payload,
                None => {
                    position.insert(key, report.entries.len());
                    report.entries.push((key, payload));
                }
            }
        }
        if report.dropped_bytes > 0 {
            let _guard = self.lock();
            if let Err(e) = self.rewrite(report.entries.iter().map(|(k, p)| (*k, p.as_str()))) {
                report.errors.push(format!("journal repair: {e}"));
            }
        }
        report
    }

    /// Durably records one cache insert, then compacts if the policy
    /// says so. `live` is called only when compacting and must return
    /// the full set of entries the compacted journal should hold (the
    /// live cache contents). Best-effort: failures land in the counters
    /// and the returned flag, never in the request path.
    ///
    /// Returns `true` when the append reached storage.
    pub fn persist(
        &self,
        key: u64,
        payload: &str,
        live: &dyn Fn() -> Vec<(u64, Arc<str>)>,
    ) -> bool {
        let mut since = self.lock();
        let line = encode_record(key, payload);
        if self.storage.append(JOURNAL_FILE, line.as_bytes()).is_err() {
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        *since += 1;
        if self.snapshot_every > 0 && *since >= self.snapshot_every {
            let mut entries = live();
            entries.sort_unstable_by_key(|(key, _)| *key);
            // A failed rewrite leaves the appended journal in place; the
            // next append retries.
            if self
                .rewrite(entries.iter().map(|(k, p)| (*k, p.as_ref())))
                .is_ok()
            {
                self.compactions.fetch_add(1, Ordering::Relaxed);
                *since = 0;
            }
        }
        true
    }

    /// Replaces the journal with one record per entry, in order. Callers
    /// hold the append lock.
    fn rewrite<'a>(&self, entries: impl Iterator<Item = (u64, &'a str)>) -> std::io::Result<()> {
        let bytes: String = entries
            .map(|(key, payload)| encode_record(key, payload))
            .collect();
        self.storage.replace(JOURNAL_FILE, bytes.as_bytes())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.appends_since_compaction
            .lock()
            .expect("durable state poisoned")
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> DurableStats {
        DurableStats {
            appends: self.appends.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{DiskStorage, FaultyStorage, StorageFaults};
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfid_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk(tag: &str) -> (Arc<dyn Storage>, PathBuf) {
        let root = tmp_root(tag);
        (Arc::new(DiskStorage::open(&root).unwrap()), root)
    }

    #[test]
    fn encode_decode_round_trips() {
        let line = encode_record(0xdead_beef, r#"{"slots":3}"#);
        assert!(line.ends_with('\n'));
        let report = replay(line.as_bytes());
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(
            report.entries,
            vec![(0xdead_beef, r#"{"slots":3}"#.to_string())]
        );
    }

    #[test]
    fn replay_keeps_longest_valid_prefix_on_torn_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(encode_record(1, "one").as_bytes());
        bytes.extend_from_slice(encode_record(2, "two").as_bytes());
        let torn = encode_record(3, "three");
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        let report = replay(&bytes);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.dropped_bytes, torn.len() / 2);
    }

    #[test]
    fn replay_stops_at_a_flipped_checksum_byte() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(encode_record(1, "one").as_bytes());
        let mut bad = encode_record(2, "two").into_bytes();
        // Flip one payload byte: the crc no longer matches.
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(encode_record(3, "three").as_bytes());
        let report = replay(&bytes);
        assert_eq!(report.entries.len(), 1, "prefix before the corruption");
        assert!(report.dropped_bytes > 0);
    }

    #[test]
    fn deeply_nested_line_is_dropped_as_a_torn_tail() {
        let (storage, root) = disk("deep");
        let store = DurableStore::new(Arc::clone(&storage), 0);
        assert!(store.persist(1, "one", &Vec::new));
        assert!(store.persist(2, "two", &Vec::new));
        // A line nested far past the parser's limit, then a valid record:
        // recovery keeps the prefix, cuts the rest and does not crash.
        let deep = format!("{{\"junk\":{}\n", "[".repeat(100_000));
        storage.append(JOURNAL_FILE, deep.as_bytes()).unwrap();
        storage
            .append(JOURNAL_FILE, encode_record(3, "three").as_bytes())
            .unwrap();
        let report = store.recover();
        assert_eq!(
            report.entries,
            vec![(1, "one".to_string()), (2, "two".to_string())]
        );
        assert_eq!(
            report.dropped_bytes,
            deep.len() + encode_record(3, "three").len()
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_journal_recovers_to_nothing() {
        let report = replay(b"");
        assert!(report.entries.is_empty());
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn persist_then_recover_round_trips() {
        let (storage, root) = disk("roundtrip");
        let store = DurableStore::new(Arc::clone(&storage), 0);
        assert!(store.persist(7, "seven", &Vec::new));
        assert!(store.persist(8, "eight", &Vec::new));
        let report = store.recover();
        assert_eq!(
            report.entries,
            vec![(7, "seven".to_string()), (8, "eight".to_string())]
        );
        assert!(report.errors.is_empty());
        assert_eq!(store.stats().appends, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compaction_snapshots_then_empties_the_journal() {
        let (storage, root) = disk("compact");
        let store = DurableStore::new(Arc::clone(&storage), 2);
        // The live set arrives unsorted; the compacted journal is sorted.
        let live = || {
            vec![
                (2u64, Arc::<str>::from("two")),
                (1u64, Arc::<str>::from("one")),
            ]
        };
        store.persist(2, "two", &live);
        store.persist(1, "one", &live);
        assert_eq!(store.stats().compactions, 1);
        let compacted = encode_record(1, "one") + &encode_record(2, "two");
        assert_eq!(
            storage.read(JOURNAL_FILE).unwrap(),
            compacted.as_bytes(),
            "compaction rewrites the journal to one record per live entry"
        );
        // A third insert is appended to the compacted journal.
        store.persist(3, "three", &live);
        let report = store.recover();
        assert_eq!(report.journal_records, 3);
        let keys: Vec<u64> = report.entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn repeated_keys_recover_once_with_their_last_payload() {
        let (storage, root) = disk("repeats");
        // A compacted prefix holding keys 1 and 2 ...
        let live = || vec![(1u64, Arc::from("one")), (2u64, Arc::from("two"))];
        let compacting = DurableStore::new(Arc::clone(&storage), 2);
        compacting.persist(1, "one", &live);
        compacting.persist(2, "two", &live);
        assert_eq!(compacting.stats().compactions, 1);
        // ... then appends that repeat both new and compacted keys.
        let store = DurableStore::new(Arc::clone(&storage), 0);
        for (key, payload) in [
            (3, "three"),
            (2, "two-b"),
            (3, "three-b"),
            (4, "four"),
            (2, "two-c"),
        ] {
            assert!(store.persist(key, payload, &Vec::new));
        }
        let report = store.recover();
        assert_eq!(report.journal_records, 7);
        assert_eq!(
            report.entries,
            vec![
                (1, "one".to_string()),
                (2, "two-c".to_string()),
                (3, "three-b".to_string()),
                (4, "four".to_string()),
            ]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_append_is_survived_by_recovery() {
        let (inner, root) = disk("torn");
        let faulty: Arc<dyn Storage> = Arc::new(FaultyStorage::new(
            Arc::clone(&inner),
            StorageFaults::seeded(5).with_torn_append(3),
        ));
        let store = DurableStore::new(faulty, 0);
        assert!(store.persist(1, "one", &Vec::new));
        assert!(store.persist(2, "two", &Vec::new));
        assert!(!store.persist(3, "three", &Vec::new), "torn mid-write");
        assert_eq!(store.stats().append_errors, 1);
        // "Restart" over the same directory with healthy storage: the
        // torn tail is dropped, and cut from the file.
        let restarted = DurableStore::new(Arc::clone(&inner), 0);
        let recovered = restarted.recover();
        assert_eq!(recovered.journal_records, 2);
        assert!(recovered.dropped_bytes > 0, "the tear left bytes behind");
        assert!(recovered.errors.is_empty(), "{:?}", recovered.errors);
        let keys: Vec<u64> = recovered.entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2]);
        let prefix = encode_record(1, "one") + &encode_record(2, "two");
        assert_eq!(inner.read(JOURNAL_FILE).unwrap(), prefix.as_bytes());
        // Records appended after the restart follow a valid record, so a
        // second restart recovers them too.
        for (key, payload) in [(3, "three"), (4, "four"), (5, "five")] {
            assert!(restarted.persist(key, payload, &Vec::new));
        }
        let again = DurableStore::new(inner, 0).recover();
        assert_eq!(again.dropped_bytes, 0);
        let keys: Vec<u64> = again.entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dead_disk_recovery_reports_errors_instead_of_panicking() {
        let (inner, root) = disk("dead");
        let faulty: Arc<dyn Storage> = Arc::new(FaultyStorage::new(
            inner,
            StorageFaults::seeded(1).with_deny_reads(),
        ));
        let report = DurableStore::new(faulty, 0).recover();
        assert!(report.entries.is_empty());
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].starts_with("journal read"),
            "{:?}",
            report.errors
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
