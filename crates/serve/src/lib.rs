//! `rfid-serve` — the scheduling service layer.
//!
//! PRs 1–3 made the solver stack robust, fast and observable, but every
//! schedule still came from a one-shot CLI invocation. This crate adds
//! the long-lived request path the ROADMAP's "serves heavy traffic"
//! north star needs, as four composable layers (DESIGN.md §9):
//!
//! 1. **Codec** ([`codec`]) — canonical JSON encode/decode of a
//!    [`JobSpec`] (scenario or explicit deployment + solver options) with
//!    a stable FNV-1a 64-bit content hash. Semantically equal requests
//!    (aliased algorithm names, permuted tag lists) canonicalise to the
//!    same bytes and therefore the same cache key.
//! 2. **Cache** ([`cache`]) — a sharded `RwLock` LRU keyed by content
//!    hash, with capacity/TTL bounds and hit/miss/eviction counters
//!    exported through [`ServiceStats`].
//! 3. **Queue + workers** ([`queue`], [`service`]) — a bounded work
//!    queue with backpressure (a full queue is a structured `429`-style
//!    reject, never a hang or a silent drop), per-request deadlines and
//!    graceful drain-then-stop shutdown.
//! 4. **Protocol** ([`protocol`], [`server`]) — JSON-lines over TCP
//!    (`std::net` only, per the vendored-offline policy), served by a
//!    nonblocking readiness loop ([`reactor`]) with request pipelining.
//!    Every full, delta and key frame is one [`Target`] through
//!    [`Service::submit`]. [`TcpClient`] ([`client`]) is the one client:
//!    one peer, or failover across a peer list.
//! 5. **Durability + replication** (DESIGN.md §10) — one durable file,
//!    an append-only checksummed journal that compaction rewrites in
//!    place, over an injectable [`Storage`] trait ([`storage`],
//!    [`journal`]), so a restarted daemon recovers a warm cache from the
//!    longest valid journal prefix; push-only cache gossip between peer
//!    daemons ([`replicate`]); and [`TcpClient::failover`], which retries
//!    idempotent requests against the next peer.
//! 6. **Sharding** ([`ring`], [`router`]) — a consistent-hash ring over
//!    the FNV-1a content keys and a thin `mrrfid route` process that
//!    fans requests out across N daemon instances, with stats
//!    aggregation and gossip partitioning, so cache capacity and solve
//!    throughput scale horizontally.
//! 7. **Scenario deltas** (protocol v3 `Delta` frames, DESIGN.md §13)
//!    — a client holding a base content key sends `{base, ops}`
//!    instead of a full scenario; the service resolves the base spec
//!    (structured `404` base-miss otherwise), applies the ops through
//!    [`rfid_delta`], solves the patched scenario cold like a full
//!    request and publishes the reply under the derived content key,
//!    which caches, journals, gossips and routes exactly like a full
//!    request.
//! 8. **Request by key** (protocol v4 `Key` frames, DESIGN.md §14) — a
//!    client that already round-tripped a job addresses the cached
//!    schedule by content key alone: a shallow frame scan
//!    ([`codec::scan_key_frame`]) extracts the key without a serde
//!    parse, the cache answers with pre-rendered payload bytes spliced
//!    into the reply envelope ([`reactor::SplicedFrame`]), and a key the
//!    node does not hold is a structured `404` key-miss, the client's
//!    cue to send the full frame ([`TcpClient::schedule_by_key`]).
//!
//! The **determinism contract**: a response payload is the canonical
//! JSON of a [`ScheduleOutcome`] and contains no wall-clock data, so a
//! cold solve, a warm cache hit, an in-process [`Service`] call, the
//! TCP client, a journal-recovered restart and a gossip-warmed peer all
//! return byte-identical payloads for the same request (enforced by
//! `tests/serve.rs` and `tests/serve_chaos.rs`).

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod codec;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod replicate;
pub mod ring;
pub mod router;
pub mod server;
pub mod service;
pub mod storage;

pub use cache::{CacheStats, ScheduleCache};
pub use client::{ClientError, FailoverPolicy, TcpClient};
pub use codec::{
    canonical_json, decode_job, fnv1a64, scan_key_frame, CanonicalJob, CodecError, JobSpec,
    KeyFrameScan, Workload,
};
pub use journal::{DurableStats, DurableStore, RecoveryReport, ReplayReport};
pub use protocol::{FrameRead, GossipEntry, Request, Response, ServiceStats, PROTOCOL_VERSION};
pub use queue::{PushError, ResponseSlot, WorkQueue};
pub use replicate::Replicator;
pub use rfid_delta::ScenarioDelta;
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use server::Server;
pub use service::{
    ScheduleOutcome, ScheduleReply, ServeConfig, Service, ServiceError, SlotSummary, Submission,
    Target,
};
pub use storage::{DiskStorage, FaultyStorage, Storage, StorageFaults};
