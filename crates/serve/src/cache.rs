//! Content-addressed schedule cache: sharded `RwLock` LRU with TTL.
//!
//! Keys are the codec's 64-bit content hashes; values are the canonical
//! response payloads as `Arc<str>` (hits clone a pointer, never the
//! bytes). The map is split across a fixed number of shards so readers
//! on different keys rarely contend, and recency is tracked with a
//! global atomic clock plus a per-entry atomic stamp — a cache *hit*
//! only takes the shard's **read** lock (the stamp updates through
//! `AtomicU64`), writes are confined to inserts, evictions and expiry.
//!
//! Approximation notes, deliberate and documented: eviction removes the
//! minimum-stamp entry of the *inserting shard* (classic sharded-LRU —
//! globally approximate, per-shard exact), and TTL expiry is lazy (an
//! expired entry is dropped when next touched, or when eviction prefers
//! it). Neither affects correctness: the cache stores pure functions of
//! the key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

const SHARDS: usize = 8;

struct Entry {
    payload: Arc<str>,
    /// The payload pre-rendered as a JSON string literal (quotes and
    /// escapes included), built lazily on the first wire probe and
    /// reused by every later one — the request-by-key fast path splices
    /// these bytes straight into the reply envelope, so a hit never
    /// re-serialises the payload.
    wire: OnceLock<Arc<str>>,
    /// Last-touched tick from the global clock (atomic so hits can bump
    /// it under the shard's read lock).
    stamp: AtomicU64,
    inserted: Instant,
}

impl Entry {
    fn wire(&self) -> Arc<str> {
        Arc::clone(self.wire.get_or_init(|| {
            let rendered = serde_json::to_string(self.payload.as_ref())
                .expect("string serialisation cannot fail");
            Arc::from(rendered)
        }))
    }
}

/// Point-in-time cache counters, reported through the service's stats
/// endpoint (the same numbers are exported as `rfid-obs` counters by the
/// service layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by TTL expiry.
    pub expired: u64,
    /// Current number of live entries.
    pub entries: u64,
    /// Configured capacity (0 = caching disabled).
    pub capacity: u64,
}

/// The sharded LRU+TTL payload cache.
pub struct ScheduleCache {
    shards: Vec<RwLock<HashMap<u64, Entry>>>,
    clock: AtomicU64,
    capacity: usize,
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
}

impl ScheduleCache {
    /// A cache holding at most `capacity` entries (approximately — the
    /// bound is enforced per shard). `capacity == 0` disables caching:
    /// every get misses and every insert is a no-op. `ttl == None` keeps
    /// entries until evicted.
    pub fn new(capacity: usize, ttl: Option<Duration>) -> Self {
        ScheduleCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            capacity,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, Entry>> {
        // High bits: FNV mixes them well, and the low bits already pick
        // the bucket inside the shard's HashMap.
        &self.shards[(key >> 32) as usize % SHARDS]
    }

    fn expired(&self, entry: &Entry) -> bool {
        match self.ttl {
            Some(ttl) => entry.inserted.elapsed() >= ttl,
            None => false,
        }
    }

    /// Looks up a payload, refreshing its recency on hit. An expired
    /// entry counts as a miss and is removed.
    pub fn get(&self, key: u64) -> Option<Arc<str>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shard = self.shard(key);
        {
            let map = shard.read().expect("cache shard poisoned");
            match map.get(&key) {
                Some(entry) if !self.expired(entry) => {
                    let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                    entry.stamp.store(tick, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&entry.payload));
                }
                Some(_) => {} // expired: fall through to remove under write lock
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        let mut map = shard.write().expect("cache shard poisoned");
        if map.get(&key).is_some_and(|e| self.expired(e)) && map.remove(&key).is_some() {
            self.expired.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts (or refreshes) a payload, evicting the shard's
    /// least-recently-used entry if the shard is at capacity. Returns the
    /// number of entries evicted (0 or 1) so callers can export the
    /// counter.
    pub fn insert(&self, key: u64, payload: Arc<str>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let per_shard = self.capacity.div_ceil(SHARDS).max(1);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.shard(key).write().expect("cache shard poisoned");
        let fresh = Entry {
            payload,
            wire: OnceLock::new(),
            stamp: AtomicU64::new(tick),
            inserted: Instant::now(),
        };
        if map.insert(key, fresh).is_some() {
            return 0; // refresh of an existing key never grows the shard
        }
        let mut evicted = 0;
        while map.len() > per_shard {
            // Prefer dropping an expired entry; otherwise the true
            // per-shard LRU (minimum stamp).
            let victim = map
                .iter()
                .find(|(_, e)| self.expired(e))
                .map(|(k, _)| (*k, true))
                .or_else(|| {
                    map.iter()
                        .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                        .map(|(k, _)| (*k, false))
                });
            match victim {
                Some((k, was_expired)) => {
                    map.remove(&k);
                    if was_expired {
                        self.expired.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// The request-by-key probe: on a hit, returns the payload together
    /// with its pre-rendered wire form (the payload as a JSON string
    /// literal), counting the hit and refreshing recency exactly like
    /// [`ScheduleCache::get`]. A **miss is counter-quiet**: a key
    /// request that finds nothing is answered as a structured key-miss
    /// and the client retries with a full frame — counting that probe
    /// as a cache miss would double-count the one logical request and
    /// break `hits + misses + coalesced == requests`. Expired entries
    /// miss quietly too (left for `get`/`insert` to reap — the fast
    /// path never takes a write lock).
    pub fn probe_wire(&self, key: u64) -> Option<(Arc<str>, Arc<str>)> {
        self.probe_with(key, |entry| (Arc::clone(&entry.payload), entry.wire()))
    }

    /// [`probe_wire`](Self::probe_wire) without the wire form: counts a
    /// hit, misses quietly. For a probe that precedes the request's own
    /// counted lookup (a delta write tries its derived key first), so
    /// that one request counts at most one miss.
    pub(crate) fn probe(&self, key: u64) -> Option<Arc<str>> {
        self.probe_with(key, |entry| Arc::clone(&entry.payload))
    }

    fn probe_with<R>(&self, key: u64, hit: impl FnOnce(&Entry) -> R) -> Option<R> {
        if self.capacity == 0 {
            return None;
        }
        let map = self.shard(key).read().expect("cache shard poisoned");
        match map.get(&key) {
            Some(entry) if !self.expired(entry) => {
                let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                entry.stamp.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit(entry))
            }
            _ => None,
        }
    }

    /// `false` when the cache was built with capacity 0 (caching and the
    /// single-flight layer above it are disabled).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// `true` when a live (non-expired) entry exists for `key`, without
    /// touching the hit/miss counters or recency. The durability and
    /// replication layers probe with this before applying journal or
    /// gossip entries, so background inserts never distort the
    /// `hits + misses + coalesced == requests` request accounting.
    pub fn contains(&self, key: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let map = self.shard(key).read().expect("cache shard poisoned");
        map.get(&key).is_some_and(|e| !self.expired(e))
    }

    /// All live entries, for snapshots and peer gossip. Payloads are
    /// `Arc` clones (pointer copies); order is unspecified — consumers
    /// that need determinism sort by key.
    pub fn entries(&self) -> Vec<(u64, Arc<str>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.read().expect("cache shard poisoned");
            for (k, e) in map.iter() {
                if !self.expired(e) {
                    out.push((*k, Arc::clone(&e.payload)));
                }
            }
        }
        out
    }

    /// Current number of live entries (counts expired-but-unreaped ones).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ScheduleCache::new(16, None);
        assert!(cache.get(1).is_none());
        cache.insert(1, payload("one"));
        assert_eq!(cache.get(1).as_deref(), Some("one"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = ScheduleCache::new(0, None);
        assert_eq!(cache.insert(1, payload("one")), 0);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // Capacity 8 over 8 shards → 1 entry per shard. Two keys landing
        // in the same shard must evict the least recently used one.
        let cache = ScheduleCache::new(8, None);
        let (a, b) = (0u64, 1u64); // same shard: high 32 bits both 0
        cache.insert(a, payload("a"));
        assert!(cache.get(a).is_some());
        assert_eq!(cache.insert(b, payload("b")), 1);
        assert!(cache.get(a).is_none(), "older entry should be evicted");
        assert_eq!(cache.get(b).as_deref(), Some("b"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn recency_is_updated_by_get() {
        let cache = ScheduleCache::new(16, None); // 2 entries per shard
        let (a, b, c) = (0u64, 1u64, 2u64); // all in shard 0
        cache.insert(a, payload("a"));
        cache.insert(b, payload("b"));
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        assert!(cache.get(a).is_some());
        cache.insert(c, payload("c"));
        assert!(cache.get(a).is_some(), "touched entry must survive");
        assert!(cache.get(b).is_none(), "untouched entry is the victim");
        assert!(cache.get(c).is_some());
    }

    #[test]
    fn zero_ttl_expires_immediately() {
        let cache = ScheduleCache::new(16, Some(Duration::ZERO));
        cache.insert(1, payload("one"));
        assert!(cache.get(1).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.expired, 1);
        assert_eq!(s.entries, 0, "expired entry must be reaped");
    }

    #[test]
    fn long_ttl_does_not_expire() {
        let cache = ScheduleCache::new(16, Some(Duration::from_secs(3600)));
        cache.insert(1, payload("one"));
        assert_eq!(cache.get(1).as_deref(), Some("one"));
    }

    #[test]
    fn refresh_existing_key_does_not_evict() {
        let cache = ScheduleCache::new(8, None); // 1 per shard
        cache.insert(1, payload("one"));
        assert_eq!(cache.insert(1, payload("uno")), 0);
        assert_eq!(cache.get(1).as_deref(), Some("uno"));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn contains_and_entries_do_not_touch_counters() {
        let cache = ScheduleCache::new(16, None);
        cache.insert(1, payload("one"));
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, 1);
        assert_eq!(entries[0].1.as_ref(), "one");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "probes must be counter-quiet");

        let disabled = ScheduleCache::new(0, None);
        disabled.insert(1, payload("one"));
        assert!(!disabled.contains(1));
        assert!(disabled.entries().is_empty());
    }

    #[test]
    fn probe_wire_hits_count_and_misses_stay_quiet() {
        let cache = ScheduleCache::new(16, None);
        cache.insert(1, payload(r#"{"slots":3,"label":"a\"b"}"#));
        // Miss: counter-quiet (the caller answers a structured key-miss
        // and the retried full frame will do the counting).
        assert!(cache.probe_wire(2).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        // Hit: counted like a normal get, wire form is the payload as a
        // JSON string literal, rendered once and shared afterwards.
        let (p, w) = cache.probe_wire(1).unwrap();
        assert_eq!(p.as_ref(), r#"{"slots":3,"label":"a\"b"}"#);
        assert_eq!(w.as_ref(), serde_json::to_string(p.as_ref()).unwrap());
        let (_, w2) = cache.probe_wire(1).unwrap();
        assert!(Arc::ptr_eq(&w, &w2), "wire bytes are rendered once");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 0));

        // Disabled cache: quiet miss.
        let disabled = ScheduleCache::new(0, None);
        assert!(disabled.probe_wire(1).is_none());
        assert_eq!(disabled.stats().misses, 0);
    }

    #[test]
    fn probe_wire_refreshes_recency() {
        let cache = ScheduleCache::new(16, None); // 2 entries per shard
        let (a, b, c) = (0u64, 1u64, 2u64); // all in shard 0
        cache.insert(a, payload("a"));
        cache.insert(b, payload("b"));
        assert!(cache.probe_wire(a).is_some());
        cache.insert(c, payload("c"));
        assert!(cache.get(a).is_some(), "probed entry must survive");
        assert!(cache.get(b).is_none(), "untouched entry is the victim");
    }

    #[test]
    fn expired_entries_probe_as_quiet_misses() {
        let cache = ScheduleCache::new(16, Some(Duration::ZERO));
        cache.insert(1, payload("one"));
        assert!(cache.probe_wire(1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn concurrent_hits_and_inserts_are_consistent() {
        let cache = Arc::new(ScheduleCache::new(64, None));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1000 + i % 8;
                        cache.insert(key, Arc::from(format!("{key}")));
                        if let Some(p) = cache.get(key) {
                            assert_eq!(p.as_ref(), format!("{key}"));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.hits > 0);
        assert!(s.entries <= 64);
    }
}
