//! The scheduling service: cache in front of a bounded worker pool.
//!
//! Request path (DESIGN.md §9): every full, delta and key request is one
//! [`Target`] into [`Service::submit`] → resolve it to the content key
//! its answer is cached under (canonicalising a job once, via
//! [`crate::codec`]) → probe the [`ScheduleCache`] → on miss, admit into
//! the bounded [`WorkQueue`] (full → structured `429`) → a worker resolves
//! the algorithm through [`SchedulerRegistry`], runs
//! [`covering_schedule_with`] with the server's [`Recorder`] attached,
//! renders the [`ScheduleOutcome`] as canonical JSON, publishes it to
//! the cache and fulfils the client's [`ResponseSlot`].
//!
//! The payload deliberately contains **no wall-clock data** (per-slot
//! summaries are recomputed from the schedule itself, not from the timed
//! `SlotMetrics`), which is what makes the determinism contract hold:
//! cold solve, warm cache, in-process and TCP paths all hand back the
//! same bytes.

use crate::cache::ScheduleCache;
use crate::codec::{canonical_json, CanonicalJob, CodecError, JobSpec, Workload};
use crate::journal::DurableStore;
use crate::protocol::{
    GossipEntry, ServiceStats, CODE_BAD_REQUEST, CODE_BASE_MISS, CODE_DEADLINE, CODE_INTERNAL,
    CODE_KEY_MISS, CODE_QUEUE_FULL, CODE_SHUTTING_DOWN, CODE_UNKNOWN_ALGORITHM, CODE_UNSOLVABLE,
};
use crate::queue::{PushError, ResponseSlot, WorkQueue};
use crate::replicate::Replicator;
use crate::storage::{DiskStorage, Storage};
use rfid_core::mcs::{covering_schedule_with, CoveringSchedule, McsOptions};
use rfid_core::SchedulerRegistry;
use rfid_delta::{apply_ops, derived_key, key_hex, parse_key_hex, ScenarioDelta};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment};
use rfid_obs::{counter, event, Recorder, Subscriber};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bound on the failover-dedup id set; reaching it clears the set (a
/// coarse generation swap — old ids simply stop being deduplicated,
/// which is harmless because the requests are idempotent anyway).
const SEEN_IDS_CAP: usize = 4096;

/// Bound on the canonical-spec store that resolves delta bases; reaching
/// it clears the store (same coarse generation swap as [`SEEN_IDS_CAP`]).
/// A cleared base simply answers the next delta with a structured
/// base-miss, and the client re-sends the full scenario.
const SPEC_STORE_CAP: usize = 1024;

/// A structured service error: an HTTP-flavoured code plus a cause.
/// Every failure mode of the request path maps to exactly one code —
/// clients never see a hang, a dropped request or a panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceError {
    /// One of the `crate::protocol::CODE_*` constants.
    pub code: u16,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    fn new(code: u16, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
        }
    }
}

impl From<CodecError> for ServiceError {
    fn from(err: CodecError) -> Self {
        match err {
            // The registry message is already self-describing ("unknown
            // algorithm \"x\"; known: ..."), so no extra prefix.
            CodecError::UnknownAlgorithm(m) => ServiceError::new(CODE_UNKNOWN_ALGORITHM, m),
            CodecError::InvalidWorkload(m) => {
                ServiceError::new(CODE_BAD_REQUEST, format!("invalid workload: {m}"))
            }
            CodecError::Malformed(m) => {
                ServiceError::new(CODE_BAD_REQUEST, format!("malformed job: {m}"))
            }
        }
    }
}

/// Per-slot summary recomputed from the schedule itself — everything a
/// dashboard needs, none of the wall-clock data that would break the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSummary {
    /// Slot index in activation order.
    pub slot: usize,
    /// Readers activated this slot.
    pub active_readers: usize,
    /// Tags served this slot.
    pub tags_served: usize,
    /// `true` when the progress guard produced this slot.
    pub fallback: bool,
}

/// The response payload: `McsRun` totals, the full schedule and per-slot
/// summaries. Rendered as canonical JSON, this is the byte string the
/// cache stores and every client receives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Canonical algorithm label that produced the schedule.
    pub algorithm: String,
    /// Number of time slots (the paper's metric).
    pub slots: usize,
    /// Total tags served.
    pub tags_served: usize,
    /// Slots produced by the progress guard.
    pub fallback_slots: usize,
    /// Tags no reader covers.
    pub uncoverable: usize,
    /// RTc pairs repaired by the resilient policy.
    pub repaired_pairs: usize,
    /// Activations dropped because their reader crashed.
    pub crashed_dropped: usize,
    /// Coverable tags abandoned by the resilient policy.
    pub abandoned_tags: usize,
    /// `true` when every coverable tag was served.
    pub complete: bool,
    /// The full covering schedule.
    pub schedule: CoveringSchedule,
    /// One summary row per slot (`slot_summaries[i]` ↔ `schedule.slots[i]`).
    pub slot_summaries: Vec<SlotSummary>,
}

/// A successful schedule response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleReply {
    /// Content key (fixed-width hex) — the cache address of the payload.
    pub key: String,
    /// `true` when the payload came from the cache.
    pub cached: bool,
    /// Canonical JSON of a [`ScheduleOutcome`].
    pub payload: Arc<str>,
    /// `payload` pre-escaped as a JSON string literal, rendered once per
    /// cache entry (see [`ScheduleCache::probe_wire`]). Only a key-frame
    /// hit carries it: the transport splices these bytes into the reply
    /// envelope without re-serialising anything.
    pub wire: Option<Arc<str>>,
}

impl ScheduleReply {
    /// Parses the payload back into a typed outcome.
    pub fn outcome(&self) -> Result<ScheduleOutcome, String> {
        serde_json::from_str(&self.payload).map_err(|e| e.to_string())
    }
}

/// What a schedule-producing request asks for. Every target resolves to
/// the content key its answer is cached under, which is also the key
/// the reply is addressed by.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// A full job (`Schedule` frame), cached under its canonical key.
    Job(&'a JobSpec),
    /// A cached schedule by content key alone (protocol v4 `Key`
    /// frame): `key` itself, or with `ops` the [`derived_key`] of
    /// `(key, ops)`. Never solved: a miss is a counter-quiet `key-miss`.
    Key {
        /// Content key, fixed-width hex.
        key: &'a str,
        /// Delta ops whose derivation to look up; empty for `key` itself.
        ops: &'a [ScenarioDelta],
    },
    /// `ops` applied to the resident scenario `base` (protocol v3
    /// `Delta` frame), cached under the [`derived_key`] of `(base, ops)`
    /// and solved like the patched scenario sent in full.
    Delta {
        /// Content key of the base scenario, fixed-width hex.
        base: &'a str,
        /// The edits to apply, in order.
        ops: &'a [ScenarioDelta],
    },
}

/// Service construction parameters (the CLI's `serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads solving cache misses. `0` is legal (nothing is
    /// ever solved — useful for backpressure tests).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `429`.
    pub queue_cap: usize,
    /// Cache capacity in entries; `0` disables caching.
    pub cache_cap: usize,
    /// Optional time-to-live for cache entries.
    pub cache_ttl: Option<Duration>,
    /// Directory for the journal, the one durable file (DESIGN.md §10).
    /// `None` keeps the cache RAM-only.
    pub data_dir: Option<PathBuf>,
    /// Compact the journal after this many appends: rewrite it to one
    /// record per live cache entry (`0` = never compact).
    pub snapshot_every: usize,
    /// Peer daemon addresses to gossip cache entries to.
    pub peers: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_cap: 64,
            cache_cap: 256,
            cache_ttl: None,
            data_dir: None,
            snapshot_every: 64,
            peers: Vec::new(),
        }
    }
}

type JobResult = Result<ScheduleReply, ServiceError>;

/// What [`Service::submit`] decided without blocking.
pub enum Submission {
    /// Answered synchronously: a cache hit, or a structured admission
    /// error (bad request, 404, 429, 503).
    Ready(JobResult),
    /// Admitted: the job is queued behind a worker (leader) or
    /// coalesced onto an identical in-flight solve (follower). The slot
    /// delivers the result; poll it with
    /// [`ResponseSlot::try_take`](crate::queue::ResponseSlot::try_take),
    /// whose waker the fulfill wakes, or block on
    /// [`ResponseSlot::wait`](crate::queue::ResponseSlot::wait).
    Queued(Arc<ResponseSlot<JobResult>>),
}

/// One request waiting on a solve: its slot, and the key its reply is
/// addressed by — the solved job's own key, or a delta's derived key.
#[derive(Clone)]
struct Waiter {
    slot: Arc<ResponseSlot<JobResult>>,
    alias: u64,
}

struct Job {
    /// Content key of `spec`.
    key: u64,
    /// The canonical spec, shared with the delta-base store.
    spec: Arc<JobSpec>,
    /// The request that enqueued the job.
    leader: Waiter,
}

struct Inner {
    registry: SchedulerRegistry,
    cache: ScheduleCache,
    queue: WorkQueue<Job>,
    /// Single-flight table: content key → every [`Waiter`] on the
    /// in-flight solve of that key (index 0 is the leader that enqueued
    /// the job). Only populated while the cache is enabled — with
    /// caching off, every request is an independent solve.
    inflight: Mutex<HashMap<u64, Vec<Waiter>>>,
    recorder: Recorder,
    shutting_down: AtomicBool,
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Journal persistence; `None` = RAM-only.
    durable: Option<DurableStore>,
    /// Gossip fan-out; `None` when no peers are configured. Taken (and
    /// consumed) by shutdown, hence the `Mutex<Option<..>>`.
    replicator: Mutex<Option<Replicator>>,
    /// Request ids already served, for failover-retry dedup accounting.
    seen_ids: Mutex<HashSet<String>>,
    /// Canonical job specs by content key — the bases a delta request
    /// can patch. Populated on every *admitted* submission (full or
    /// delta) — cache hits skip the spec clone to keep the hot path
    /// allocation-free, which is fine because the entry they hit was
    /// itself admitted here (or gossiped in, which never had a spec and
    /// therefore base-misses either way).
    specs: Mutex<HashMap<u64, Arc<JobSpec>>>,
    // Counters not derivable from the cache or queue.
    requests: AtomicU64,
    coalesced: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    deadline_expired: AtomicU64,
    solved: AtomicU64,
    errors: AtomicU64,
    recovered: AtomicU64,
    replicated_in: AtomicU64,
    deduped: AtomicU64,
}

impl Inner {
    /// Journals and gossips one freshly published payload. Both paths
    /// are best-effort and counted in [`ServiceStats`]; neither touches
    /// the request accounting.
    fn publish_durable(&self, key: u64, payload: &str) {
        if let Some(durable) = &self.durable {
            durable.persist(key, payload, &|| self.cache.entries());
        }
        let repl = self.replicator.lock().expect("replicator poisoned");
        if let Some(repl) = repl.as_ref() {
            repl.offer(&key_hex(key), payload);
        }
    }

    /// Makes a payload solved under `key` findable under a waiter's
    /// `alias` (a delta's derived key) too, by caching it there unless
    /// an entry exists. Returns whether the caller must journal and
    /// gossip the alias: only for a new entry, so coalesced deltas
    /// publish it once, and always with caching off, where there is
    /// nothing to check. Callers hold the single-flight lock, so
    /// concurrent requests cannot both insert one alias.
    fn cache_alias(&self, key: u64, alias: u64, payload: &Arc<str>) -> bool {
        if alias == key {
            return false;
        }
        if !self.cache.is_enabled() {
            return true;
        }
        if self.cache.contains(alias) {
            return false;
        }
        self.cache.insert(alias, Arc::clone(payload));
        true
    }

    /// Registers a canonical spec as a delta base under `key`.
    fn store_spec(&self, key: u64, spec: &Arc<JobSpec>) {
        let mut specs = self.specs.lock().expect("specs poisoned");
        if specs.len() >= SPEC_STORE_CAP && !specs.contains_key(&key) {
            specs.clear();
        }
        specs.entry(key).or_insert_with(|| Arc::clone(spec));
    }
}

/// The scheduling service: shared-nothing from the caller's view, cheap
/// to clone (an `Arc` internally), safe to use from many threads.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl Service {
    /// Starts the worker pool and returns the running service. With
    /// `data_dir` set, opens the directory (the only fallible step) and
    /// recovers the cache from the journal before accepting work.
    pub fn start(config: ServeConfig) -> std::io::Result<Self> {
        let storage: Option<Arc<dyn Storage>> = match &config.data_dir {
            Some(dir) => Some(Arc::new(DiskStorage::open(dir)?)),
            None => None,
        };
        Ok(Self::start_with_storage(config, storage))
    }

    /// [`start`](Self::start) with an explicit [`Storage`] — the seam
    /// the chaos harness injects a `FaultyStorage` through.
    pub fn start_with_storage(config: ServeConfig, storage: Option<Arc<dyn Storage>>) -> Self {
        let durable = storage.map(|s| DurableStore::new(s, config.snapshot_every));
        let replicator = if config.peers.is_empty() {
            None
        } else {
            Some(Replicator::start(&config.peers))
        };
        let inner = Arc::new(Inner {
            registry: SchedulerRegistry::global(),
            cache: ScheduleCache::new(config.cache_cap, config.cache_ttl),
            queue: WorkQueue::new(config.queue_cap),
            inflight: Mutex::new(HashMap::new()),
            recorder: Recorder::with_events(),
            shutting_down: AtomicBool::new(false),
            workers: config.workers,
            handles: Mutex::new(Vec::new()),
            durable,
            replicator: Mutex::new(replicator),
            seen_ids: Mutex::new(HashSet::new()),
            specs: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            replicated_in: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
        });
        if let Some(durable) = &inner.durable {
            // Warm the cache before the first request can arrive. Inserts
            // go through the counter-quiet path (plain `insert`), so a
            // recovered start does not distort hit/miss accounting.
            let report = durable.recover();
            let mut warmed = 0u64;
            for (key, payload) in &report.entries {
                inner.cache.insert(*key, Arc::from(payload.as_str()));
                warmed += 1;
            }
            inner.recovered.store(warmed, Ordering::Relaxed);
            let sub: Option<&dyn Subscriber> = Some(&inner.recorder);
            event!(
                sub,
                "serve.recovery",
                "entries" => warmed,
                "journal_records" => report.journal_records,
                "dropped_bytes" => report.dropped_bytes,
                "errors" => report.errors.len(),
                "warm" => warmed > 0,
            );
            counter!(sub, "serve.recovery.errors", report.errors.len() as u64);
        }
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let worker = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker))
                    .expect("spawn worker thread"),
            );
        }
        *inner.handles.lock().expect("handles poisoned") = handles;
        Service { inner }
    }

    /// Schedules one job, waiting up to `deadline` for the result.
    ///
    /// Every outcome is structured: a cache hit or solved schedule on
    /// success; otherwise a [`ServiceError`] whose code pins the cause
    /// (bad request, unknown algorithm, queue full, shutting down,
    /// deadline expired, solver stall, worker panic).
    pub fn schedule(&self, spec: &JobSpec, deadline: Option<Duration>) -> JobResult {
        self.request(Target::Job(spec), deadline, None)
    }

    /// [`submit`](Self::submit) of a full job.
    pub fn submit_with_id(&self, spec: &JobSpec, request_id: Option<&str>) -> Submission {
        self.submit(Target::Job(spec), request_id)
    }

    /// [`request`](Self::request) of a cached schedule by content key
    /// alone; see [`Target::Key`].
    pub fn request_by_key(&self, key: &str, ops: &[ScenarioDelta]) -> JobResult {
        self.request(Target::Key { key, ops }, None, None)
    }

    /// [`submit`](Self::submit), then wait up to `deadline` for a queued
    /// result.
    pub fn request(
        &self,
        target: Target<'_>,
        deadline: Option<Duration>,
        request_id: Option<&str>,
    ) -> JobResult {
        match self.submit(target, request_id) {
            Submission::Ready(result) => result,
            Submission::Queued(slot) => slot
                .wait(deadline)
                .unwrap_or_else(|| Err(self.deadline_expired(&format!("{deadline:?}")))),
        }
    }

    /// Counts a deadline expiry and builds its structured `504` error.
    /// Callers (the blocking wait above, the reactor's slot polling)
    /// must have abandoned the slot first so a late result is dropped.
    pub(crate) fn deadline_expired(&self, waited: &str) -> ServiceError {
        self.inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
        ServiceError::new(CODE_DEADLINE, format!("deadline expired after {waited}"))
    }

    /// Admits one schedule-producing request without blocking — the
    /// entry point of every full, delta and key frame.
    ///
    /// The target resolves to the content key its answer is cached
    /// under, and one probe of that key answers every hit, counted as
    /// one request plus one hit. On a miss a key target answers a
    /// counter-quiet `404` key-miss (the client falls back to the full
    /// frame, and *that* submission does the request accounting); a job
    /// or delta is admitted by its canonical key — cache, coalescing,
    /// queue and all — with a delta's reply addressed by its derived
    /// key. A hit or admission error is [`Submission::Ready`]; queued
    /// leaders and coalesced followers get [`Submission::Queued`] with
    /// the slot the worker will fulfil. A repeated `request_id` (a
    /// failover retry of an idempotent request) is served normally but
    /// counted as a dedup instead of fresh demand.
    pub fn submit(&self, target: Target<'_>, request_id: Option<&str>) -> Submission {
        self.note_retry(request_id);
        match target {
            Target::Job(spec) => match CanonicalJob::new(spec, &self.inner.registry) {
                Ok(CanonicalJob { spec, key, .. }) => self
                    .probe(key, false)
                    .unwrap_or_else(|| self.admit(key, key, request_id, move || Arc::new(spec))),
                Err(e) => self.fail(ServiceError::from(e)),
            },
            Target::Key { key, ops } => {
                let Some(base) = parse_key_hex(key) else {
                    return self.fail(ServiceError::new(
                        CODE_BAD_REQUEST,
                        format!("malformed key {key:?}: expected 16 hex digits"),
                    ));
                };
                let address = if ops.is_empty() {
                    base
                } else {
                    derived_key(base, ops)
                };
                self.probe(address, true).unwrap_or_else(|| {
                    let sub: Option<&dyn Subscriber> = Some(&self.inner.recorder);
                    counter!(sub, "serve.key.miss");
                    self.fail(ServiceError::new(
                        CODE_KEY_MISS,
                        format!(
                            "key-miss: schedule {} is not cached on this node; send the full frame",
                            key_hex(address)
                        ),
                    ))
                })
            }
            Target::Delta { base, ops } => {
                let sub: Option<&dyn Subscriber> = Some(&self.inner.recorder);
                counter!(sub, "serve.delta.request");
                let Some(base_key) = parse_key_hex(base) else {
                    return self.fail(ServiceError::new(
                        CODE_BAD_REQUEST,
                        format!("malformed base key {base:?}: expected 16 hex digits"),
                    ));
                };
                let derived = derived_key(base_key, ops);
                self.probe(derived, false)
                    .unwrap_or_else(|| self.admit_delta(base, base_key, derived, ops, request_id))
            }
        }
    }

    /// The one cache probe: a live entry at `address` answers the
    /// request, counted as one request plus one hit. A miss is
    /// counter-quiet — admission counts it, or it never becomes a
    /// request. `wire` asks for the entry's pre-rendered wire form too.
    fn probe(&self, address: u64, wire: bool) -> Option<Submission> {
        let inner = &self.inner;
        let (payload, wire) = if wire {
            let (payload, wire) = inner.cache.probe_wire(address)?;
            (payload, Some(wire))
        } else {
            (inner.cache.probe(address)?, None)
        };
        inner.requests.fetch_add(1, Ordering::Relaxed);
        if wire.is_some() {
            let sub: Option<&dyn Subscriber> = Some(&inner.recorder);
            counter!(sub, "serve.key.hit");
        }
        Some(Submission::Ready(Ok(ScheduleReply {
            key: key_hex(address),
            cached: true,
            payload,
            wire,
        })))
    }

    /// Counts an error answered without admission.
    fn fail(&self, err: ServiceError) -> Submission {
        self.inner.errors.fetch_add(1, Ordering::Relaxed);
        Submission::Ready(Err(err))
    }

    /// The miss path of a delta: resolves the base spec (structured
    /// `404` base-miss when this node has never seen it), applies the
    /// ops, canonicalises once, stores the patched spec under the
    /// derived key (the base that chained deltas index into) and admits
    /// it by canonical key, answered under the derived key.
    fn admit_delta(
        &self,
        base: &str,
        base_key: u64,
        derived: u64,
        ops: &[ScenarioDelta],
        request_id: Option<&str>,
    ) -> Submission {
        let inner = &self.inner;
        let spec = {
            let specs = inner.specs.lock().expect("specs poisoned");
            specs.get(&base_key).cloned()
        };
        let Some(spec) = spec else {
            let sub: Option<&dyn Subscriber> = Some(&inner.recorder);
            counter!(sub, "serve.delta.base_miss");
            return self.fail(ServiceError::new(
                CODE_BASE_MISS,
                format!(
                    "base-miss: scenario {base} is not resident on this node; \
                     send the full scenario"
                ),
            ));
        };
        // Ops index tags and readers in the *canonical* base deployment
        // (the form the base's own reply was computed from): patch the
        // stored one in place of a copy, or generate a `Generated` base.
        let generated: Deployment;
        let base_deployment = match &spec.workload {
            Workload::Generated { scenario, seed } => {
                generated = scenario.generate(*seed);
                &generated
            }
            Workload::Explicit { deployment } => deployment,
        };
        let patched = match apply_ops(base_deployment, ops) {
            Ok(patched) => patched,
            Err(e) => {
                return self.fail(ServiceError::new(
                    CODE_BAD_REQUEST,
                    format!("invalid delta: {e}"),
                ))
            }
        };
        let patched_spec = JobSpec {
            workload: Workload::Explicit {
                deployment: patched.deployment,
            },
            algorithm: spec.algorithm.clone(),
            algo_seed: spec.algo_seed,
            resilient: spec.resilient,
            max_slots: spec.max_slots,
        };
        // Canonicalise once: the canonical patched spec is both the base
        // that *chained* deltas index into (stored under the derived key)
        // and the job admission keys on — one shared copy for both.
        let CanonicalJob { spec, key, .. } = match CanonicalJob::new(&patched_spec, &inner.registry)
        {
            Ok(canonical) => canonical,
            Err(e) => return self.fail(ServiceError::from(e)),
        };
        let spec = Arc::new(spec);
        inner.store_spec(derived, &spec);
        self.admit(key, derived, request_id, move || spec)
    }

    /// Failover-dedup *check* only — a `&str` set lookup, no clone.
    /// Recording the id (which allocates) is deferred to the miss path
    /// via `note_admitted`: a retried request that hits the cache is
    /// already free, so paying an allocation to count it as a dedup
    /// would tax exactly the path we keep hot.
    fn note_retry(&self, request_id: Option<&str>) {
        let inner = &self.inner;
        if let Some(id) = request_id {
            let seen = inner.seen_ids.lock().expect("seen ids poisoned");
            if seen.contains(id) {
                inner.deduped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Admission of one canonical job by content key `key`, answered
    /// under `alias` (a delta's derived key, else `key` itself): count
    /// the request, then coalesce, hit or lead (enqueue), decided under
    /// the single-flight lock so exactly one solve of each key is in
    /// flight. A worker publishes to the cache *before* it drains the
    /// key's entry, both under this lock, so a request that finds no
    /// entry and misses the cache is a genuine leader. With caching off
    /// no entry is ever made and every request leads. `spec` yields the
    /// canonical spec and runs, like the slot allocation, only when the
    /// job is admitted, never on a hit.
    fn admit(
        &self,
        key: u64,
        alias: u64,
        request_id: Option<&str>,
        spec: impl FnOnce() -> Arc<JobSpec>,
    ) -> Submission {
        let inner = &self.inner;
        let sub: Option<&dyn Subscriber> = Some(&inner.recorder);
        inner.requests.fetch_add(1, Ordering::Relaxed);
        let mut inflight = inner.inflight.lock().expect("inflight poisoned");
        if let Some(waiters) = inflight.get_mut(&key) {
            let slot = Arc::new(ResponseSlot::new());
            waiters.push(Waiter {
                slot: Arc::clone(&slot),
                alias,
            });
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            drop(inflight);
            note_admitted(inner, sub, request_id, key, &spec());
            return Submission::Queued(slot);
        }
        if let Some(payload) = inner.cache.get(key) {
            let publish = inner.cache_alias(key, alias, &payload);
            drop(inflight);
            if publish {
                inner.publish_durable(alias, &payload);
            }
            return Submission::Ready(Ok(ScheduleReply {
                key: key_hex(alias),
                cached: true,
                payload,
                wire: None,
            }));
        }
        if inner.shutting_down.load(Ordering::SeqCst) {
            inner.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready(Err(ServiceError::new(
                CODE_SHUTTING_DOWN,
                "service is shutting down",
            )));
        }
        let spec = spec();
        note_admitted(inner, sub, request_id, key, &spec);
        let leader = Waiter {
            slot: Arc::new(ResponseSlot::new()),
            alias,
        };
        let slot = Arc::clone(&leader.slot);
        let job = Job {
            key,
            spec,
            leader: leader.clone(),
        };
        if let Err(e) = inner.queue.try_push(job) {
            return Submission::Ready(Err(self.reject(e)));
        }
        if inner.cache.is_enabled() {
            inflight.insert(key, vec![leader]);
        }
        Submission::Queued(slot)
    }

    /// Maps a queue-admission failure to its structured error.
    fn reject(&self, err: PushError) -> ServiceError {
        let inner = &self.inner;
        match err {
            PushError::Full => {
                inner.rejected_full.fetch_add(1, Ordering::Relaxed);
                ServiceError::new(
                    CODE_QUEUE_FULL,
                    format!(
                        "work queue full ({} pending); retry later",
                        inner.queue.len()
                    ),
                )
            }
            PushError::Closed => {
                inner.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                ServiceError::new(CODE_SHUTTING_DOWN, "service is shutting down")
            }
        }
    }

    /// Applies gossiped cache entries from a peer: parse the hex key,
    /// skip entries already cached (counter-quiet probe), insert and
    /// journal the rest. Returns how many were newly applied. Absorbed
    /// entries are **not** re-gossiped — fan-out is push-only, so a
    /// full-mesh peer set converges without flooding loops.
    pub fn absorb(&self, entries: &[GossipEntry]) -> u64 {
        let inner = &self.inner;
        let mut applied = 0u64;
        for entry in entries {
            let Ok(key) = u64::from_str_radix(&entry.key, 16) else {
                continue;
            };
            if !inner.cache.is_enabled() || inner.cache.contains(key) {
                continue;
            }
            inner.cache.insert(key, Arc::from(entry.payload.as_str()));
            if let Some(durable) = &inner.durable {
                durable.persist(key, &entry.payload, &|| inner.cache.entries());
            }
            applied += 1;
        }
        inner.replicated_in.fetch_add(applied, Ordering::Relaxed);
        applied
    }

    /// Point-in-time counters across cache, queue, workers and the
    /// durability/replication layers.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let cache = inner.cache.stats();
        let durable = inner
            .durable
            .as_ref()
            .map(|d| d.stats())
            .unwrap_or_default();
        let (replicated_out, replication_dropped) = {
            let repl = inner.replicator.lock().expect("replicator poisoned");
            repl.as_ref()
                .map(|r| (r.offered(), r.dropped()))
                .unwrap_or((0, 0))
        };
        ServiceStats {
            requests: inner.requests.load(Ordering::Relaxed),
            coalesced: inner.coalesced.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_expired: cache.expired,
            cache_entries: cache.entries,
            rejected_full: inner.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: inner.rejected_shutdown.load(Ordering::Relaxed),
            deadline_expired: inner.deadline_expired.load(Ordering::Relaxed),
            solved: inner.solved.load(Ordering::Relaxed),
            errors: inner.errors.load(Ordering::Relaxed),
            queue_depth: inner.queue.len() as u64,
            workers: inner.workers as u64,
            recovered_entries: inner.recovered.load(Ordering::Relaxed),
            journal_appends: durable.appends,
            journal_append_errors: durable.append_errors,
            snapshots_written: durable.compactions,
            replicated_out,
            replication_dropped,
            replicated_in: inner.replicated_in.load(Ordering::Relaxed),
            deduped: inner.deduped.load(Ordering::Relaxed),
        }
    }

    /// Deterministic JSON snapshot of the server's `rfid-obs` recorder
    /// (counters, histograms, span counts — wall times excluded).
    pub fn metrics_json(&self) -> String {
        self.inner.recorder.snapshot().to_json()
    }

    /// Stops the service. With `drain == true`, queued jobs are solved
    /// before the workers exit (graceful "drain, then stop"); otherwise
    /// pending jobs are failed fast with a `503` so their waiters return
    /// immediately. Idempotent; blocks until every worker has exited.
    pub fn shutdown(&self, drain: bool) {
        let inner = &self.inner;
        inner.shutting_down.store(true, Ordering::SeqCst);
        if !drain {
            for job in inner.queue.take_pending() {
                let err = ServiceError::new(CODE_SHUTTING_DOWN, "service is shutting down");
                let waiters = inner
                    .inflight
                    .lock()
                    .expect("inflight poisoned")
                    .remove(&job.key)
                    .unwrap_or_else(|| vec![job.leader]);
                for w in waiters {
                    w.slot.fulfill(Err(err.clone()));
                }
            }
        }
        inner.queue.close();
        let handles = std::mem::take(&mut *inner.handles.lock().expect("handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
        // Stop gossip last: queued entries from the drain still go out.
        let replicator = inner.replicator.lock().expect("replicator poisoned").take();
        if let Some(replicator) = replicator {
            replicator.shutdown();
        }
    }
}

/// Miss-path admission bookkeeping, deliberately **not** run on cache
/// hits: records the request id for failover-retry dedup (allocates the
/// id's `String`) and registers the canonical spec as a delta base
/// (allocates its shared `Arc`). Both allocations are pinned by the
/// `serve.admission.alloc` counter so a regression that re-runs them on
/// the hit path fails a test instead of quietly taxing every request.
fn note_admitted(
    inner: &Inner,
    sub: Option<&dyn Subscriber>,
    request_id: Option<&str>,
    key: u64,
    spec: &Arc<JobSpec>,
) {
    if let Some(id) = request_id {
        let mut seen = inner.seen_ids.lock().expect("seen ids poisoned");
        if seen.len() >= SEEN_IDS_CAP {
            seen.clear();
        }
        if seen.insert(id.to_string()) {
            counter!(sub, "serve.admission.alloc");
        }
    }
    inner.store_spec(key, spec);
    counter!(sub, "serve.admission.alloc");
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        let key = job.key;
        {
            // Skip the solve when every waiter's deadline expired while
            // the job sat queued — no point burning a worker on ghosts.
            // Each waiter was counted as it gave up, so the skip is not.
            let mut inflight = inner.inflight.lock().expect("inflight poisoned");
            let all_abandoned = match inflight.get(&key) {
                Some(waiters) => waiters.iter().all(|w| w.slot.is_abandoned()),
                None => job.leader.slot.is_abandoned(),
            };
            if all_abandoned {
                inflight.remove(&key);
                continue;
            }
        }
        let sub: Option<&dyn Subscriber> = Some(&inner.recorder);
        let result =
            catch_unwind(AssertUnwindSafe(|| solve(inner, &job.spec))).unwrap_or_else(|panic| {
                Err(ServiceError::new(
                    CODE_INTERNAL,
                    format!("worker panicked: {}", panic_message(&panic)),
                ))
            });
        match &result {
            Ok(_) => {
                inner.solved.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                inner.errors.fetch_add(1, Ordering::Relaxed);
                counter!(sub, "serve.solve.error");
            }
        }
        // Publish to the cache (the key, then each new alias), then
        // drain the single-flight entry — in that order and both before
        // any follower can re-enter the leader path (see `admit`).
        let (waiters, aliases) = {
            let mut inflight = inner.inflight.lock().expect("inflight poisoned");
            let waiters = inflight.remove(&key).unwrap_or_else(|| vec![job.leader]);
            let mut aliases = Vec::new();
            if let Ok(payload) = &result {
                inner.cache.insert(key, Arc::clone(payload));
                for w in &waiters {
                    if inner.cache_alias(key, w.alias, payload) {
                        aliases.push(w.alias);
                    }
                }
            }
            (waiters, aliases)
        };
        // Journal + gossip outside the single-flight lock: disk and
        // network latency must never extend the critical section.
        if let Ok(payload) = &result {
            inner.publish_durable(key, payload);
            for alias in aliases {
                inner.publish_durable(alias, payload);
            }
        }
        for (i, w) in waiters.into_iter().enumerate() {
            w.slot.fulfill(match &result {
                Ok(payload) => Ok(ScheduleReply {
                    key: key_hex(w.alias),
                    // Followers got their bytes from the shared in-flight
                    // solve, not a solve of their own.
                    cached: i > 0,
                    payload: Arc::clone(payload),
                    wire: None,
                }),
                Err(e) => Err(e.clone()),
            });
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Solves one canonical job and renders its canonical payload.
fn solve(inner: &Inner, spec: &JobSpec) -> Result<Arc<str>, ServiceError> {
    let deployment: Deployment = match &spec.workload {
        Workload::Generated { scenario, seed } => scenario.generate(*seed),
        Workload::Explicit { deployment } => deployment.clone(),
    };
    let coverage = Coverage::build(&deployment);
    let graph = interference_graph(&deployment);
    let kind = inner
        .registry
        .parse(&spec.algorithm)
        .map_err(|m| ServiceError::new(CODE_UNKNOWN_ALGORITHM, m))?;
    let mut scheduler = inner.registry.instantiate(kind, spec.algo_seed);
    let mut options = McsOptions::new().subscriber(&inner.recorder);
    if spec.resilient {
        options = options.resilient();
    }
    if let Some(max_slots) = spec.max_slots {
        options = options.max_slots(max_slots);
    }
    let run = covering_schedule_with(&deployment, &coverage, &graph, scheduler.as_mut(), &options)
        .map_err(|e| ServiceError::new(CODE_UNSOLVABLE, e.to_string()))?;
    let outcome = ScheduleOutcome {
        algorithm: kind.label().to_string(),
        slots: run.schedule.size(),
        tags_served: run.schedule.tags_served(),
        fallback_slots: run.schedule.fallback_slots(),
        uncoverable: run.schedule.uncoverable.len(),
        repaired_pairs: run.repaired_pairs,
        crashed_dropped: run.crashed_dropped,
        abandoned_tags: run.abandoned_tags.len(),
        complete: run.complete(),
        slot_summaries: run
            .schedule
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| SlotSummary {
                slot: i,
                active_readers: s.active.len(),
                tags_served: s.served.len(),
                fallback: s.fallback,
            })
            .collect(),
        schedule: run.schedule,
    };
    Ok(Arc::from(canonical_json(&outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CODE_QUEUE_FULL, CODE_SHUTTING_DOWN, CODE_UNKNOWN_ALGORITHM};
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

    /// A job that keeps one worker busy long enough for requests queued
    /// behind it to coalesce or expire.
    fn slow_job() -> JobSpec {
        let mut slow = JobSpec::new(Workload::Generated {
            scenario: Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 2000,
                n_tags: 40_000,
                region_side: 640.0,
                radius_model: RadiusModel::paper_default(),
            },
            seed: 1,
        });
        slow.algorithm = "ghc".into();
        slow
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            cache_cap: 32,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn solve_then_cache_hit_returns_identical_bytes() {
        let service = Service::start(quick_config()).unwrap();
        let job = small_job(3);
        let cold = service.schedule(&job, None).unwrap();
        assert!(!cold.cached);
        let warm = service.schedule(&job, None).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        assert_eq!(cold.key, warm.key);
        let outcome = warm.outcome().unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.slot_summaries.len(), outcome.slots);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.solved, 1);
        service.shutdown(true);
    }

    #[test]
    fn unknown_algorithm_is_structured_404() {
        let service = Service::start(quick_config()).unwrap();
        let mut job = small_job(1);
        job.algorithm = "quantum-annealing".into();
        let err = service.schedule(&job, None).unwrap_err();
        assert_eq!(err.code, CODE_UNKNOWN_ALGORITHM);
        assert!(err.message.contains("alg2-central"), "{}", err.message);
        service.shutdown(true);
    }

    #[test]
    fn huge_cluster_count_is_a_structured_400() {
        // Generating this scenario would ask for 2^40 cluster centres and
        // abort the process; admission must refuse it first.
        let service = Service::start(quick_config()).unwrap();
        let mut job = small_job(1);
        if let Workload::Generated { scenario, .. } = &mut job.workload {
            scenario.kind = ScenarioKind::ClusteredTags {
                clusters: 1 << 40,
                sigma: 2.0,
            };
        }
        let err = service.schedule(&job, None).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        assert!(err.message.contains("clusters"), "{}", err.message);
        service.shutdown(true);
    }

    #[test]
    fn full_queue_rejects_with_429() {
        // No workers: every admitted job parks in the queue forever.
        let service = Service::start(ServeConfig {
            workers: 0,
            queue_cap: 2,
            cache_cap: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let svc = service.clone();
        let j1 = small_job(1);
        let t1 = std::thread::spawn(move || svc.schedule(&j1, None));
        let svc = service.clone();
        let j2 = small_job(2);
        let t2 = std::thread::spawn(move || svc.schedule(&j2, None));
        // Wait until both jobs are queued.
        for _ in 0..200 {
            if service.stats().queue_depth == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(service.stats().queue_depth, 2);
        let err = service.schedule(&small_job(3), None).unwrap_err();
        assert_eq!(err.code, CODE_QUEUE_FULL);
        // Non-draining shutdown fails the parked jobs with 503 so the
        // blocked threads return (nothing hangs, nothing is dropped).
        service.shutdown(false);
        for t in [t1, t2] {
            let err = t.join().unwrap().unwrap_err();
            assert_eq!(err.code, CODE_SHUTTING_DOWN);
        }
        assert_eq!(service.stats().rejected_full, 1);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        let service = Service::start(quick_config()).unwrap();
        let job = small_job(7);
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let svc = service.clone();
                let job = job.clone();
                std::thread::spawn(move || svc.schedule(&job, None).unwrap())
            })
            .collect();
        let replies: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for r in &replies {
            assert_eq!(replies[0].key, r.key);
            assert_eq!(replies[0].payload, r.payload);
        }
        let stats = service.stats();
        assert_eq!(stats.solved, 1, "identical in-flight jobs must coalesce");
        assert_eq!(stats.cache_misses, 1, "only the leader misses");
        assert_eq!(stats.cache_hits + stats.coalesced, 5);
        service.shutdown(true);
    }

    #[test]
    fn coalesced_followers_do_not_consume_queue_slots() {
        // One queue slot, no workers: the leader parks in the queue and
        // followers join its single-flight entry instead of drawing a
        // 429 — then every waiter expires together.
        let service = Service::start(ServeConfig {
            workers: 0,
            queue_cap: 1,
            cache_cap: 8,
            ..ServeConfig::default()
        })
        .unwrap();
        let job = small_job(1);
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let svc = service.clone();
                let job = job.clone();
                std::thread::spawn(move || svc.schedule(&job, Some(Duration::from_millis(200))))
            })
            .collect();
        for t in threads {
            let err = t.join().unwrap().unwrap_err();
            assert_eq!(err.code, CODE_DEADLINE);
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.rejected_full, 0);
        assert_eq!(stats.queue_depth, 1);
        service.shutdown(false);
    }

    #[test]
    fn deadline_expires_with_504() {
        let service = Service::start(ServeConfig {
            workers: 0, // nothing will ever solve the job
            queue_cap: 4,
            cache_cap: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let err = service
            .schedule(&small_job(1), Some(Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err.code, CODE_DEADLINE);
        assert_eq!(service.stats().deadline_expired, 1);
        service.shutdown(false);
    }

    #[test]
    fn shutdown_rejects_new_requests_with_503() {
        let service = Service::start(quick_config()).unwrap();
        service.shutdown(true);
        let err = service.schedule(&small_job(1), None).unwrap_err();
        assert_eq!(err.code, CODE_SHUTTING_DOWN);
        // Idempotent.
        service.shutdown(true);
    }

    #[test]
    fn deadline_expiry_behind_a_busy_worker_counts_once() {
        let service = Service::start(ServeConfig {
            workers: 1,
            ..quick_config()
        })
        .unwrap();
        // Occupy the one worker, so the next job expires while queued.
        let Submission::Queued(_busy) = service.submit_with_id(&slow_job(), None) else {
            panic!("the slow job must queue");
        };
        let err = service
            .schedule(&small_job(1), Some(Duration::from_millis(1)))
            .unwrap_err();
        assert_eq!(err.code, CODE_DEADLINE);
        // Draining lets the worker reach, and skip, the abandoned job.
        service.shutdown(true);
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1, "{stats:?}");
        assert_eq!(stats.solved, 1, "only the slow job is solved: {stats:?}");
    }

    #[test]
    fn metrics_snapshot_sees_serve_counters() {
        let service = Service::start(quick_config()).unwrap();
        let job = small_job(5);
        service.schedule(&job, None).unwrap();
        service.schedule(&job, None).unwrap();
        let metrics = service.metrics_json();
        assert!(metrics.contains("serve.admission.alloc"), "{metrics}");
        assert!(metrics.contains("mcs.covering_schedule"), "{metrics}");
        service.shutdown(true);
    }

    /// An explicit deployment whose tags are already in canonical
    /// (ascending `(x, y)`) order, so local [`apply_ops`] sees the same
    /// indices the server does.
    fn explicit_job() -> (JobSpec, Deployment) {
        use rfid_geometry::{Point, Rect};
        let tags: Vec<Point> = (0..20)
            .map(|i| Point::new(1.0 + (i as f64) * 0.9, 2.0 + ((i * 7) % 17) as f64))
            .collect();
        let deployment = Deployment::new(
            Rect::square(20.0),
            vec![
                Point::new(5.0, 5.0),
                Point::new(15.0, 5.0),
                Point::new(5.0, 15.0),
                Point::new(15.0, 15.0),
            ],
            vec![9.0; 4],
            vec![7.0; 4],
            tags,
        );
        let spec = JobSpec::new(Workload::Explicit {
            deployment: deployment.clone(),
        });
        (spec, deployment)
    }

    fn sample_ops() -> Vec<rfid_delta::ScenarioDelta> {
        use rfid_delta::ScenarioDelta::*;
        vec![
            AddTag { x: 11.5, y: 3.5 },
            RemoveTag { tag: 2 },
            MoveReader {
                reader: 1,
                x: 14.0,
                y: 6.0,
            },
        ]
    }

    fn delta(service: &Service, base: &str, ops: &[ScenarioDelta]) -> JobResult {
        service.request(Target::Delta { base, ops }, None, None)
    }

    fn counter_value(service: &Service, name: &str) -> u64 {
        let metrics: serde_json::Value = serde_json::from_str(&service.metrics_json()).unwrap();
        metrics["counters"][name].as_f64().unwrap_or(0.0) as u64
    }

    #[test]
    fn request_by_key_answers_identical_bytes_and_counts_as_hit() {
        let service = Service::start(quick_config()).unwrap();
        let job = small_job(11);
        let cold = service.schedule(&job, None).unwrap();
        let hit = service.request_by_key(&cold.key, &[]).unwrap();
        assert_eq!(hit.key, cold.key);
        assert_eq!(hit.payload, cold.payload, "determinism contract");
        assert_eq!(
            hit.wire.as_deref(),
            Some(
                serde_json::to_string(cold.payload.as_ref())
                    .unwrap()
                    .as_str()
            ),
            "wire form is the payload as a JSON string literal"
        );
        assert!(hit.cached);
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1, "key hits count as hits");
        assert_eq!(
            stats.cache_hits + stats.cache_misses + stats.coalesced,
            stats.requests,
            "request accounting must hold through the key path"
        );
        service.shutdown(true);
    }

    #[test]
    fn request_by_key_miss_is_structured_and_counter_quiet() {
        let service = Service::start(quick_config()).unwrap();
        let err = service.request_by_key("00000000deadbeef", &[]).unwrap_err();
        assert_eq!(err.code, CODE_KEY_MISS);
        assert!(err.message.starts_with("key-miss"), "{}", err.message);
        assert!(err.message.contains("send the full frame"));
        let stats = service.stats();
        assert_eq!(stats.requests, 0, "a key-miss is not a request");
        assert_eq!(stats.cache_misses, 0, "a key-miss is not a cache miss");
        assert_eq!(stats.errors, 1);

        let err = service.request_by_key("not-hex", &[]).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        service.shutdown(true);
    }

    #[test]
    fn request_by_key_with_ops_matches_the_delta_path() {
        let (spec, _) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let base = service.schedule(&spec, None).unwrap();
        let ops = sample_ops();
        // Cold: the derivation is not cached yet — structured key-miss,
        // the client falls back to a full delta frame.
        let err = service.request_by_key(&base.key, &ops).unwrap_err();
        assert_eq!(err.code, CODE_KEY_MISS);
        let via_delta = delta(&service, &base.key, &ops).unwrap();
        // Warm: key+ops answers from the derived-key alias, same bytes.
        let hit = service.request_by_key(&base.key, &ops).unwrap();
        assert_eq!(hit.key, via_delta.key);
        assert_eq!(hit.payload, via_delta.payload);
        service.shutdown(true);
    }

    #[test]
    fn admission_allocations_are_gated_behind_the_miss_path() {
        let service = Service::start(quick_config()).unwrap();
        let job = small_job(21);
        service
            .request(Target::Job(&job), None, Some("retry-1"))
            .unwrap();
        // Cold solve: one id recorded + one spec clone.
        let after_miss = counter_value(&service, "serve.admission.alloc");
        assert_eq!(after_miss, 2);
        // Pure cache hits — same id, same spec — must not allocate: the
        // counter pins the id clone and the spec clone to the miss path.
        for _ in 0..3 {
            let warm = service
                .request(Target::Job(&job), None, Some("retry-1"))
                .unwrap();
            assert!(warm.cached);
        }
        assert_eq!(counter_value(&service, "serve.admission.alloc"), after_miss);
        // Key-path hits stay allocation-free too.
        let key = service.schedule(&job, None).unwrap().key;
        service.request_by_key(&key, &[]).unwrap();
        assert_eq!(counter_value(&service, "serve.admission.alloc"), after_miss);
        // The dedup *check* still runs on the hit path: the recorded id
        // was seen again, so the retries above counted as dedups.
        assert_eq!(service.stats().deduped, 3);
        service.shutdown(true);
    }

    #[test]
    fn coalesced_deltas_journal_their_derived_key_once() {
        let dir = std::env::temp_dir().join(format!("rfid_service_alias_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(ServeConfig {
            workers: 1,
            data_dir: Some(dir.clone()),
            snapshot_every: 0,
            ..quick_config()
        })
        .unwrap();
        let (spec, _) = explicit_job();
        let base = service.schedule(&spec, None).unwrap();
        let before = service.stats().journal_appends;
        // Occupy the one worker, so identical deltas queue behind it and
        // coalesce onto one solve.
        let Submission::Queued(busy) = service.submit_with_id(&slow_job(), None) else {
            panic!("the slow job must queue");
        };
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let (svc, base) = (service.clone(), base.key.clone());
                std::thread::spawn(move || delta(&svc, &base, &sample_ops()).unwrap())
            })
            .collect();
        let replies: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        busy.wait(None).unwrap().unwrap();
        for r in &replies {
            assert_eq!((&r.key, &r.payload), (&replies[0].key, &replies[0].payload));
        }
        let stats = service.stats();
        assert!(stats.coalesced > 0, "{stats:?}");
        // The slow job, the delta's canonical payload and its derived
        // key, one record each.
        assert_eq!(stats.journal_appends - before, 3, "{stats:?}");
        service.shutdown(true);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_reply_matches_cold_solve_of_patched_scenario() {
        let (spec, deployment) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let base = service.schedule(&spec, None).unwrap();
        let ops = sample_ops();
        let via_delta = delta(&service, &base.key, &ops).unwrap();

        // Cold-solve the patched scenario on a *fresh* service: the
        // bytes must match exactly (the determinism contract).
        let patched = apply_ops(&deployment, &ops).unwrap();
        let patched_spec = JobSpec::new(Workload::Explicit {
            deployment: patched.deployment,
        });
        let cold_service = Service::start(quick_config()).unwrap();
        let cold = cold_service.schedule(&patched_spec, None).unwrap();
        assert_eq!(via_delta.payload, cold.payload);

        // The reply is addressed by the derived key, and asking again
        // hits the derived-key cache alias.
        let base_key = parse_key_hex(&base.key).unwrap();
        assert_eq!(via_delta.key, key_hex(derived_key(base_key, &ops)));
        let again = delta(&service, &base.key, &ops).unwrap();
        assert!(again.cached);
        assert_eq!(again.payload, via_delta.payload);
        service.shutdown(true);
        cold_service.shutdown(true);
    }

    #[test]
    fn delta_chains_off_a_derived_key() {
        let (spec, _) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let base = service.schedule(&spec, None).unwrap();
        let first = delta(&service, &base.key, &sample_ops()).unwrap();
        let more = vec![rfid_delta::ScenarioDelta::SetReaderAlive {
            reader: 0,
            alive: false,
        }];
        let second = delta(&service, &first.key, &more).unwrap();
        assert_ne!(second.payload, first.payload);
        assert!(second.outcome().is_ok());
        service.shutdown(true);
    }

    #[test]
    fn delta_writes_count_each_request_exactly_once() {
        let (spec, _) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let holds = |step: &str| {
            let s = service.stats();
            assert_eq!(
                s.cache_hits + s.cache_misses + s.coalesced,
                s.requests,
                "hits + misses + coalesced == requests after {step}: {s:?}"
            );
        };
        let base = service.schedule(&spec, None).unwrap();
        holds("the base solve");
        let first = delta(&service, &base.key, &sample_ops()).unwrap();
        assert!(!first.cached);
        holds("a delta miss");
        let again = delta(&service, &base.key, &sample_ops()).unwrap();
        assert!(again.cached);
        holds("the same delta again");
        let more = vec![rfid_delta::ScenarioDelta::SetReaderAlive {
            reader: 0,
            alive: false,
        }];
        delta(&service, &first.key, &more).unwrap();
        holds("a chained delta");
        let err = delta(&service, "00000000deadbeef", &sample_ops()).unwrap_err();
        assert_eq!(err.code, CODE_BASE_MISS);
        holds("a base-miss");
        let err = delta(&service, "not-a-key", &sample_ops()).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        holds("a malformed base key");
        let s = service.stats();
        assert_eq!((s.requests, s.cache_hits, s.cache_misses), (4, 1, 3));
        service.shutdown(true);
    }

    #[test]
    fn a_delta_write_stores_one_shared_spec() {
        let (spec, _) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let base = service.schedule(&spec, None).unwrap();
        let reply = delta(&service, &base.key, &sample_ops()).unwrap();
        let derived = parse_key_hex(&reply.key).unwrap();
        let specs = service.inner.specs.lock().unwrap();
        // Base, derived and canonical keys: the derived and canonical
        // entries are one allocation.
        assert_eq!(specs.len(), 3);
        let shared = specs
            .values()
            .filter(|s| Arc::ptr_eq(s, &specs[&derived]))
            .count();
        assert_eq!(shared, 2);
        drop(specs);
        service.shutdown(true);
    }

    #[test]
    fn delta_against_unknown_base_is_a_structured_base_miss() {
        let service = Service::start(quick_config()).unwrap();
        let err = delta(&service, "00000000deadbeef", &sample_ops()).unwrap_err();
        assert_eq!(err.code, CODE_BASE_MISS);
        assert!(err.message.starts_with("base-miss"), "{}", err.message);
        assert!(err.message.contains("send the full scenario"));

        let err = delta(&service, "not-a-key", &[]).unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        service.shutdown(true);
    }

    #[test]
    fn delta_with_out_of_range_op_is_a_bad_request() {
        let (spec, _) = explicit_job();
        let service = Service::start(quick_config()).unwrap();
        let base = service.schedule(&spec, None).unwrap();
        let err = delta(
            &service,
            &base.key,
            &[rfid_delta::ScenarioDelta::RemoveTag { tag: 10_000 }],
        )
        .unwrap_err();
        assert_eq!(err.code, CODE_BAD_REQUEST);
        assert!(err.message.contains("invalid delta"), "{}", err.message);
        service.shutdown(true);
    }
}
