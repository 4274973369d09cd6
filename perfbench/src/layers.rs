//! The traced run: per-layer metrics on a workload's own inputs.
//!
//! The run sets the system up once, then drives two back-to-back halves
//! of the window: the first untraced, the second recording one span per
//! request; their throughput difference is the tracing overhead. It then
//! replays a sample of the frames the traced half sent through each
//! layer's public functions, in process and one call at a time, with a
//! span around every call. Last, a probe sends cached frames one at a
//! time to time the transport and the router hop. Spans are kept in
//! memory and written out at exit.

use crate::stats::{median, Accounting, Summary};
use crate::trace::Tracer;
use crate::wire::Conn;
use crate::workloads::{
    self, churn_ops, reply_head, Class, Inputs, Kind, Live, LoopOut, Parent, SetupOut,
};
use crate::{metric, Metric};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_core::mcs::{covering_schedule_with, McsOptions};
use rfid_core::SchedulerRegistry;
use rfid_delta::{apply_ops, derived_key, parse_key_hex};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment};
use rfid_serve::protocol::decode_frame;
use rfid_serve::{
    canonical_json, scan_key_frame, CanonicalJob, DiskStorage, DurableStore, HashRing, JobSpec,
    Request, Router, RouterConfig, ScheduleCache, ScheduleOutcome, ServeConfig, Service,
    ServiceStats, SlotSummary, Submission, Workload,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hit frames replayed per run.
const HIT_SAMPLE: usize = 2000;
/// Miss frames replayed per run (`cold-solve`: one block).
const MISS_SAMPLE: usize = 8;
/// `delta-churn` writes whose reads are replayed as hits: the latest.
const RECENT_WRITES: usize = 12;
/// Frames sent through the transport and router-hop probe, and the time
/// budget for routing them: the router parses every reply with the
/// vendored `serde_json`, which is quadratic in payload length (about
/// half a second for a 300 KB payload).
const PROBE_SAMPLE: usize = 400;
const HOP_BUDGET: Duration = Duration::from_secs(5);

/// Layers whose self time a miss spends on the critical path
/// (`serve.journal.persist` joins when the workload journals). Names match
/// span-name prefixes.
const MISS_LAYERS: [&str; 10] = [
    "serve.codec.scan_key",
    "serve.codec.decode",
    "model.generate",
    "delta.apply",
    "serve.codec.canonicalize",
    "serve.cache.probe",
    "model.coverage",
    "model.graph",
    "core.mcs.schedule",
    "serve.codec.render",
];

/// The solve phases the queue-wait figure excludes.
const SOLVE_LAYERS: [&str; 5] = [
    "model.generate",
    "model.coverage",
    "model.graph",
    "core.mcs.schedule",
    "serve.codec.render",
];

/// What replaying one frame measured outside the span tree.
struct Replayed {
    request: u64,
    frame: usize,
    miss: bool,
    /// Queued-to-fulfilled time minus the solve phases (misses only).
    queue_wait_ns: Option<i64>,
    /// Payload bytes, slots and fallback slots of a solve, and whether
    /// the replay rendered the payload the service returned for the job.
    solved: Option<(usize, u64, u64, bool)>,
}

struct Replay<'a> {
    inputs: &'a Inputs,
    registry: SchedulerRegistry,
    tracer: Tracer,
    /// A cache holding the workload's payloads, probed like the server's.
    cache: ScheduleCache,
    /// A journal in the scratch directory, fed the replayed payloads.
    store: DurableStore,
    /// The measured system's services (hits are admitted there).
    live: Vec<Service>,
    ring: Option<HashRing>,
    /// A cache-less service that admits and solves every replayed miss.
    solver: Service,
}

impl Replay<'_> {
    fn live_for(&self, key: u64) -> Service {
        match &self.ring {
            Some(ring) => self.live[ring.shard_of(key)].clone(),
            None => self.live[0].clone(),
        }
    }

    fn decode(&mut self, line: &str, request: u64) -> Request {
        self.tracer
            .timed("serve.codec.decode", request, || decode_frame(line))
            .expect("frames decode")
    }

    fn canonicalize(&mut self, spec: &JobSpec, request: u64) -> CanonicalJob {
        let registry = &self.registry;
        self.tracer
            .timed("serve.codec.canonicalize", request, || {
                CanonicalJob::new(spec, registry)
            })
            .expect("workload jobs are valid")
    }

    /// Replays frame `f` under a `request` span.
    fn frame(&mut self, f: usize, request: u64, miss: bool) -> Replayed {
        let inputs = self.inputs;
        let line = std::str::from_utf8(&inputs.wire[f]).expect("frames are UTF-8");
        let meta = inputs.meta[f];
        let mut out = Replayed {
            request,
            frame: f,
            miss,
            queue_wait_ns: None,
            solved: None,
        };
        let root = self.tracer.begin("request", request);
        let scanned = self.tracer.timed("serve.codec.scan_key", request, || {
            scan_key_frame(line).map(|s| s.key.to_string())
        });
        match meta.class {
            Class::Key => {
                let key_hex = scanned.expect("key frames scan");
                let key = parse_key_hex(&key_hex).expect("wire keys are hex");
                self.tracer
                    .timed("serve.cache.probe", request, || self.cache.probe_wire(key));
                let service = self.live_for(key);
                let hit = self.tracer.timed("serve.service.admit", request, || {
                    service.request_by_key(&key_hex, &[])
                });
                assert!(hit.is_ok(), "replayed key frame missed");
            }
            Class::KeyOps => {
                let Request::Key { key, ops, .. } = self.decode(line, request) else {
                    unreachable!("key+ops frames are Key frames")
                };
                let ops = ops.unwrap_or_default();
                let base = parse_key_hex(&key).expect("wire keys are hex");
                let target = derived_key(base, &ops);
                // The replay cache holds no write payloads; any payload
                // under the derived key probes the same way.
                if !self.cache.contains(target) {
                    if let Some((_, payload)) = self.cache.entries().first() {
                        self.cache.insert(target, Arc::clone(payload));
                    }
                }
                self.tracer.timed("serve.cache.probe", request, || {
                    self.cache.probe_wire(target)
                });
                let service = self.live_for(base);
                let hit = self.tracer.timed("serve.service.admit", request, || {
                    service.request_by_key(&key, &ops)
                });
                assert!(hit.is_ok(), "replayed key+ops frame missed");
            }
            Class::Full => {
                let Request::Schedule { job, .. } = self.decode(line, request) else {
                    unreachable!("full frames are Schedule frames")
                };
                let canonical = self.canonicalize(&job, request);
                self.tracer.timed("serve.cache.probe", request, || {
                    self.cache.get(canonical.key)
                });
                if miss {
                    self.solve(&canonical, request, &mut out);
                } else {
                    let service = self.live_for(canonical.key);
                    let submission = self.tracer.timed("serve.service.admit", request, || {
                        service.submit_with_id(&job, None)
                    });
                    assert!(
                        matches!(submission, Submission::Ready(Ok(_))),
                        "replayed full frame missed"
                    );
                }
            }
            Class::Delta => {
                let Request::Delta { ops, .. } = self.decode(line, request) else {
                    unreachable!("delta frames are Delta frames")
                };
                let w = meta.job;
                let base = self.write_base(w, request);
                let patched = self
                    .tracer
                    .timed("delta.apply", request, || apply_ops(&base, &ops))
                    .expect("generated ops apply");
                let mut spec = JobSpec::new(Workload::Explicit {
                    deployment: patched.deployment,
                });
                spec.algorithm = inputs.write_algorithm(w).to_string();
                let canonical = self.canonicalize(&spec, request);
                self.tracer.timed("serve.cache.probe", request, || {
                    self.cache.get(canonical.key)
                });
                self.solve(&canonical, request, &mut out);
            }
        }
        self.tracer.end(root);
        out
    }

    /// The deployment write `w` patches. The server regenerates a root
    /// base, so that is timed as generation; a chained base is stored
    /// canonical form, rebuilt here untimed.
    fn write_base(&mut self, w: usize, request: u64) -> Deployment {
        let (inputs, registry) = (self.inputs, &self.registry);
        let rebuild = || workloads::write_base(inputs, w, registry);
        match inputs.writes[w].parent {
            Parent::Base(_) => self.tracer.timed("model.generate", request, rebuild),
            Parent::Write(_) => rebuild(),
        }
    }

    /// The miss path after admission: materialise, cover, build the
    /// interference graph, schedule, render, journal; then admit the same
    /// job to the cache-less service and wait for it, which times the
    /// queue.
    fn solve(&mut self, canonical: &CanonicalJob, request: u64, out: &mut Replayed) {
        let spec = &canonical.spec;
        let t = &mut self.tracer;
        let deployment = match &spec.workload {
            Workload::Generated { scenario, seed } => {
                t.timed("model.generate", request, || scenario.generate(*seed))
            }
            Workload::Explicit { deployment } => deployment.clone(),
        };
        let coverage = t.timed("model.coverage", request, || Coverage::build(&deployment));
        let graph = t.timed("model.graph", request, || interference_graph(&deployment));
        let kind = self
            .registry
            .parse(&spec.algorithm)
            .expect("canonical labels resolve");
        let mut scheduler = self.registry.instantiate(kind, spec.algo_seed);
        let run = t
            .timed(
                format!("core.mcs.schedule.{}", kind.label()),
                request,
                || {
                    covering_schedule_with(
                        &deployment,
                        &coverage,
                        &graph,
                        scheduler.as_mut(),
                        &McsOptions::new(),
                    )
                },
            )
            .expect("workload jobs schedule");
        let (slots, fallback) = (
            run.schedule.size() as u64,
            run.schedule.fallback_slots() as u64,
        );
        // The same outcome `Service` renders.
        let payload = t.timed("serve.codec.render", request, move || {
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
            canonical_json(&outcome)
        });
        let (cache, store) = (&self.cache, &self.store);
        t.timed("serve.journal.persist", request, || {
            store.persist(canonical.key, &payload, &|| cache.entries())
        });
        let solver = &self.solver;
        let submission = t.timed("serve.service.admit", request, || {
            solver.submit_with_id(spec, None)
        });
        let Submission::Queued(slot) = submission else {
            panic!("a cache-less service queues every job");
        };
        let queued = Instant::now();
        let result = slot.wait(None).expect("no deadline");
        let waited = queued.elapsed().as_nanos() as i64;
        // The spans above time the benchmark's own copy of the miss path;
        // this ties it to the program's.
        let same = result.is_ok_and(|r| *r.payload == *payload);
        out.solved = Some((payload.len(), slots, fallback, same));
        let solve_ns: u64 = self
            .phase_times(request)
            .iter()
            .filter(|(name, _)| SOLVE_LAYERS.iter().any(|l| name.starts_with(l)))
            .map(|(_, ns)| ns)
            .sum();
        out.queue_wait_ns = Some(waited - solve_ns as i64);
    }

    /// Self time per span name of one request, the root excluded.
    fn phase_times(&self, request: u64) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.tracer.spans().iter().zip(self.tracer.self_times_ns()) {
            if span.request == request && span.parent.is_some() {
                *out.entry(span.name.clone()).or_default() += ns;
            }
        }
        out
    }
}

/// In-process time of a cached frame's admission on `service`, or `None`
/// when it did not hit. The frame is decoded before the clock starts.
fn admit_hit(service: &Service, frame: &[u8]) -> Option<Duration> {
    let line = std::str::from_utf8(frame).ok()?;
    match decode_frame(line).ok()? {
        Request::Key { key, ops, .. } => {
            let ops = ops.unwrap_or_default();
            let started = Instant::now();
            let hit = service.request_by_key(&key, &ops);
            let took = started.elapsed();
            hit.is_ok().then_some(took)
        }
        Request::Schedule { job, .. } => {
            let started = Instant::now();
            let submission = service.submit_with_id(&job, None);
            let took = started.elapsed();
            matches!(submission, Submission::Ready(Ok(_))).then_some(took)
        }
        _ => None,
    }
}

/// Transport and router hop, after the window, one frame at a time
/// (window 1) on cached frames. Transport is the RTT straight to the
/// owning server minus the in-process admission of the same frame; the hop
/// is the RTT through a router minus the direct RTT. `fleet-hits` uses its
/// own router, the other workloads a one-shard probe router in front of
/// their server. Returns transport and hop samples in microseconds, and
/// the router's forward errors.
fn probe(inputs: &Inputs, live: &Live, frames: &[usize]) -> (Vec<f64>, Vec<f64>, u64) {
    let probe = match &live.router {
        Some(_) => None,
        None => Some(
            Router::start(
                "127.0.0.1:0",
                RouterConfig {
                    shards: vec![live.servers[0].addr().to_string()],
                    ..RouterConfig::default()
                },
            )
            .expect("bind a loopback port"),
        ),
    };
    let router = probe.as_ref().or(live.router.as_ref()).expect("a router");
    let shard_addrs: Vec<String> = live.servers.iter().map(|s| s.addr().to_string()).collect();
    let ring = HashRing::new(&shard_addrs);
    let mut routed = Conn::connect(router.addr()).expect("connect to the router");
    let mut direct: Vec<Conn> = live
        .servers
        .iter()
        .map(|s| Conn::connect(s.addr()).expect("connect to a shard"))
        .collect();
    let services = live.services();
    let (mut transport, mut hops) = (Vec::new(), Vec::new());
    let give_up_at = Instant::now() + HOP_BUDGET;
    for (i, &f) in frames.iter().take(PROBE_SAMPLE).enumerate() {
        let meta = inputs.meta[f];
        let key = match meta.class {
            Class::Key | Class::Full => inputs.jobs[meta.job].key,
            Class::Delta | Class::KeyOps => inputs.writes[meta.job].parent_key,
        };
        let shard = ring.shard_of(key);
        let frame = &inputs.wire[f];
        let send = |conn: &mut Conn| conn.roundtrip(frame).expect("probe round trip");
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        // Alternate which path goes first; stop routing once the budget
        // is spent.
        let route = i == 0 || Instant::now() < give_up_at;
        let ((d_line, d), routed_reply) = if route && i % 2 == 1 {
            let r = send(&mut routed);
            (send(&mut direct[shard]), Some(r))
        } else {
            let d = send(&mut direct[shard]);
            (d, route.then(|| send(&mut routed)))
        };
        if !reply_head(&d_line).is_some_and(|(_, cached)| cached) {
            continue;
        }
        if let Some(admit) = admit_hit(&services[shard], frame) {
            transport.push(us(d) - us(admit));
        }
        if let Some((_, r)) = routed_reply.filter(|(line, _)| *line == d_line) {
            hops.push(us(r) - us(d));
        }
    }
    let errors = router.forward_errors();
    if let Some(probe) = probe {
        probe.shutdown();
    }
    (transport, hops, errors)
}

/// Spreads `want` picks evenly over `items`.
fn spread<T: Copy>(items: &[T], want: usize) -> Vec<T> {
    if items.len() <= want {
        return items.to_vec();
    }
    (0..want).map(|i| items[i * items.len() / want]).collect()
}

/// Up to four writes, two per algorithm, from the traced half.
fn delta_miss_sample(inputs: &Inputs, ok: &[(u64, usize)]) -> Vec<(u64, usize)> {
    let mut per_algorithm: BTreeMap<&str, Vec<(u64, usize)>> = BTreeMap::new();
    for &(r, f) in ok {
        if inputs.meta[f].class == Class::Delta {
            let list = per_algorithm
                .entry(inputs.write_algorithm(inputs.meta[f].job))
                .or_default();
            if list.len() < 2 {
                list.push((r, f));
            }
        }
    }
    per_algorithm.into_values().flatten().collect()
}

/// The set-up solves of the hit workloads as replayable misses: a full
/// frame of every hot job, under request ids past the loop's.
fn setup_misses(inputs: &Inputs, first_id: u64) -> Vec<(u64, usize)> {
    let mut first_full = vec![None; inputs.jobs.len()];
    for (f, meta) in inputs.meta.iter().enumerate() {
        if meta.class == Class::Full && first_full[meta.job].is_none() {
            first_full[meta.job] = Some(f);
        }
    }
    first_full
        .iter()
        .enumerate()
        .filter_map(|(j, f)| f.map(|f| (first_id + j as u64, f)))
        .collect()
}

/// The traced run of one workload: its accounting and per-layer metrics.
pub fn traced(inputs: &Inputs, scratch: &Path, seconds: f64) -> (Accounting, Vec<Metric>) {
    let kind = inputs.kind;
    let mut acct = Accounting::default();
    let setup = workloads::setup(inputs, scratch, 0, &mut acct);
    let plain = workloads::timed_loop(inputs, &setup, seconds / 2.0, 0, None, &mut acct);
    let mut tracer = Tracer::new();
    let traced = workloads::timed_loop(
        inputs,
        &setup,
        seconds / 2.0,
        plain.next_frame,
        Some(&mut tracer),
        &mut acct,
    );
    let stats = setup.live.stats();
    workloads::verify(inputs, &setup, &plain, &mut acct);

    let journal_dir = scratch.join("replay-journal");
    let cache = ScheduleCache::new(1024, None);
    if kind != Kind::ColdSolve {
        for (job, payload) in inputs.jobs.iter().zip(&setup.payloads) {
            cache.insert(job.key, Arc::from(payload.as_str()));
        }
    }
    let shard_addrs: Vec<String> = setup
        .live
        .servers
        .iter()
        .map(|s| s.addr().to_string())
        .collect();
    let mut replay = Replay {
        inputs,
        registry: SchedulerRegistry::global(),
        tracer,
        cache,
        store: DurableStore::new(
            Arc::new(DiskStorage::open(&journal_dir).expect("open the replay journal")),
            ServeConfig::default().snapshot_every,
        ),
        live: setup.live.services(),
        ring: setup
            .live
            .router
            .as_ref()
            .map(|_| HashRing::new(&shard_addrs)),
        solver: Service::start(ServeConfig {
            workers: workloads::WORKERS,
            cache_cap: 0,
            ..ServeConfig::default()
        })
        .expect("in-process service"),
    };

    let ok = &traced.answered;
    // The `delta-churn` server's cache is a sharded LRU of 8 shards of 32,
    // so by now it may have evicted any write but the most recent. A write
    // caches two entries (its canonical key and its derived alias) and the
    // delta path never touches a base's entry, so the only entries newer
    // than one of the last `RECENT_WRITES` writes belong to those writes:
    // at most 24 in any shard.
    let last_write = ok
        .iter()
        .filter(|&&(_, f)| inputs.meta[f].class == Class::Delta)
        .map(|&(_, f)| inputs.meta[f].job)
        .max()
        .unwrap_or(0);
    let hits: Vec<(u64, usize)> = ok
        .iter()
        .copied()
        .filter(|&(_, f)| match kind {
            Kind::HotRead | Kind::FleetHits => true,
            Kind::DeltaChurn => {
                inputs.meta[f].class == Class::KeyOps
                    && inputs.meta[f].job + RECENT_WRITES > last_write
            }
            Kind::ColdSolve => false,
        })
        .collect();
    // Request ids of a loop run from 0.
    let next_request = traced.replies;
    let misses: Vec<(u64, usize)> = match kind {
        Kind::ColdSolve => ok.iter().copied().take(MISS_SAMPLE).collect(),
        Kind::DeltaChurn => delta_miss_sample(inputs, ok),
        Kind::HotRead | Kind::FleetHits => setup_misses(inputs, next_request),
    };
    let mut replayed = Vec::new();
    for &(request, f) in &spread(&hits, HIT_SAMPLE) {
        replayed.push(replay.frame(f, request, false));
    }
    for &(request, f) in &misses {
        let r = replay.frame(f, request, true);
        acct.check(
            "replay-payload",
            r.solved.is_some_and(|(_, _, _, same)| same),
        );
        replayed.push(r);
    }

    // `delta.apply` everywhere: the writes' own op lists on `delta-churn`,
    // a seeded 1%-dirty op list against each replayed miss deployment on
    // the workloads that send none.
    let mut ops_per_write = Vec::new();
    if kind == Kind::DeltaChurn {
        for r in replayed.iter().filter(|r| r.miss) {
            ops_per_write.push(inputs.writes[inputs.meta[r.frame].job].ops.len() as f64);
        }
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(workloads::derive_seed(inputs.seed, 7, 0));
        for &(request, f) in &misses {
            let Workload::Generated { scenario, seed } =
                &inputs.jobs[inputs.meta[f].job].spec.workload
            else {
                continue;
            };
            let deployment = scenario.generate(*seed);
            let (ops, _) = churn_ops(
                &mut rng,
                deployment.n_tags(),
                deployment.n_readers(),
                scenario.region_side,
            );
            ops_per_write.push(ops.len() as f64);
            let root = replay.tracer.begin("probe", request);
            let _ = replay
                .tracer
                .timed("delta.apply", request, || apply_ops(&deployment, &ops));
            replay.tracer.end(root);
        }
    }

    let probe_frames: Vec<usize> = match kind {
        // The latest 1k-reader jobs: still cached, and the smallest cold
        // payloads (the router re-parses every reply).
        Kind::ColdSolve => ok
            .iter()
            .rev()
            .map(|m| m.1)
            .filter(|&f| {
                matches!(&inputs.jobs[f].spec.workload,
                    Workload::Generated { scenario, .. } if scenario.n_readers == workloads::COLD_BLOCK[0])
            })
            .take(8)
            .collect(),
        _ => spread(&hits, PROBE_SAMPLE).iter().map(|h| h.1).collect(),
    };
    let (transport, hops, forward_errors) = probe(inputs, &setup.live, &probe_frames);

    let metrics = layer_metrics(
        kind,
        &replay,
        &replayed,
        &setup,
        (&plain, &traced),
        &stats,
        &acct,
        (&transport, &hops, forward_errors),
        &ops_per_write,
    );
    let trace_dir = Path::new(".perfbench_out");
    if std::fs::create_dir_all(trace_dir).is_ok() {
        let path = trace_dir.join(format!("trace-{}-seed{}.jsonl", kind.name(), inputs.seed));
        if let Err(e) = replay.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    replay.solver.shutdown(true);
    setup.live.shutdown();
    let _ = std::fs::remove_dir_all(journal_dir);
    (acct, metrics)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    kind: Kind,
    replay: &Replay,
    replayed: &[Replayed],
    setup: &SetupOut,
    (plain, traced): (&LoopOut, &LoopOut),
    stats: &[ServiceStats],
    acct: &Accounting,
    (transport, hops, forward_errors): (&[f64], &[f64], u64),
    ops_per_write: &[f64],
) -> Vec<Metric> {
    let by_name = replay.tracer.self_times_by_name();
    let med = |name: &str, scale: f64| -> f64 {
        let samples: Vec<f64> = by_name
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 / scale).collect())
            .unwrap_or_default();
        median(&samples)
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (tail_cap, _) = kind.tail_caps();
    let transport = Summary::of(transport, tail_cap);
    let hop = Summary::of(hops, tail_cap);
    let solved: Vec<(usize, u64, u64, bool)> = replayed.iter().filter_map(|r| r.solved).collect();
    let queue_wait: Vec<f64> = replayed
        .iter()
        .filter_map(|r| r.queue_wait_ns.map(|ns| ns as f64 / 1e6))
        .collect();
    let total = |f: fn(&ServiceStats) -> u64| -> u64 { stats.iter().map(f).sum() };
    let hits = total(|s| s.cache_hits);
    let lookups = hits + total(|s| s.cache_misses);
    let key_frames = acct.sent("key") + acct.sent("key+ops");
    let key_misses =
        acct.errors_labelled("key", "key-miss") + acct.errors_labelled("key+ops", "key-miss");

    // Reconciliation: the share of the served miss p50 the miss path's
    // layer self-times leave uncovered.
    let journaled = kind == Kind::DeltaChurn;
    let covered_ms: Vec<f64> = replayed
        .iter()
        .filter(|r| r.miss)
        .map(|r| {
            let layers: u64 = replay
                .phase_times(r.request)
                .iter()
                .filter(|(name, _)| {
                    MISS_LAYERS.iter().any(|l| name.starts_with(l))
                        || (journaled && name.as_str() == "serve.journal.persist")
                })
                .map(|(_, ns)| ns)
                .sum();
            (layers as f64 + r.queue_wait_ns.unwrap_or(0) as f64) / 1e6
        })
        .collect();
    let served_misses = match kind {
        Kind::ColdSolve | Kind::DeltaChurn => &traced.miss_ms,
        Kind::HotRead | Kind::FleetHits => &setup.miss_ms,
    };
    let served_miss_ms = median(served_misses);
    let unexplained = 1.0 - median(&covered_ms) / served_miss_ms.max(1e-9);
    let rate = |l: &LoopOut| l.replies as f64 / l.wall.as_secs_f64().max(1e-9);
    println!(
        "reconciliation: served miss p50 {served_miss_ms:.3} ms over {} misses; layer self-times cover {:.3} ms (median of {} replays)",
        served_misses.len(),
        median(&covered_ms),
        covered_ms.len()
    );
    println!(
        "tracing: untraced {:.1} req/s ({} replies), traced {:.1} req/s ({} replies); {} spans",
        rate(plain),
        plain.replies,
        rate(traced),
        traced.replies,
        replay.tracer.spans().len()
    );
    println!(
        "samples: transport {} (tail p{}), hop {} (tail p{}), solves {}; cache {hits} hits of {lookups} lookups; key frames {key_frames}, key-misses {key_misses}",
        transport.count,
        transport.tail_pct,
        hop.count,
        hop.tail_pct,
        solved.len()
    );
    let solved_mean =
        |f: fn(&(usize, u64, u64, bool)) -> f64| mean(&solved.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        metric("serve.reactor.transport_us_p50", "us", transport.p50),
        metric("serve.reactor.transport_us_tail", "us", transport.tail),
        metric(
            "serve.codec.scan_key_us",
            "us",
            med("serve.codec.scan_key", 1e3),
        ),
        metric(
            "serve.codec.decode_us",
            "us",
            med("serve.codec.decode", 1e3),
        ),
        metric(
            "serve.codec.canonicalize_us",
            "us",
            med("serve.codec.canonicalize", 1e3),
        ),
        metric(
            "serve.codec.render_ms",
            "ms",
            med("serve.codec.render", 1e6),
        ),
        metric(
            "serve.codec.payload_bytes",
            "bytes",
            solved_mean(|s| s.0 as f64),
        ),
        metric("serve.cache.probe_us", "us", med("serve.cache.probe", 1e3)),
        metric(
            "serve.cache.hit_ratio",
            "ratio",
            hits as f64 / lookups.max(1) as f64,
        ),
        metric(
            "serve.cache.evictions",
            "count",
            total(|s| s.cache_evictions) as f64,
        ),
        metric(
            "serve.service.admit_us",
            "us",
            med("serve.service.admit", 1e3),
        ),
        metric(
            "serve.key.miss_ratio",
            "ratio",
            key_misses as f64 / key_frames.max(1) as f64,
        ),
        metric("serve.queue.wait_ms", "ms", median(&queue_wait)),
        metric(
            "serve.queue.rejected",
            "count",
            total(|s| s.rejected_full) as f64,
        ),
        metric(
            "serve.journal.persist_us",
            "us",
            med("serve.journal.persist", 1e3),
        ),
        metric(
            "serve.journal.appends",
            "count",
            total(|s| s.journal_appends) as f64,
        ),
        metric("serve.router.hop_us_p50", "us", hop.p50),
        metric("serve.router.hop_us_tail", "us", hop.tail),
        metric(
            "serve.router.forward_errors",
            "count",
            forward_errors as f64,
        ),
        metric("delta.apply_ms", "ms", med("delta.apply", 1e6)),
        metric("delta.ops_per_write", "count", mean(ops_per_write)),
        metric("model.generate_ms", "ms", med("model.generate", 1e6)),
        metric("model.coverage_ms", "ms", med("model.coverage", 1e6)),
        metric("model.graph_ms", "ms", med("model.graph", 1e6)),
    ];
    for algorithm in workloads::ALGORITHMS {
        metrics.push(metric(
            format!("core.mcs.schedule_ms.{algorithm}"),
            "ms",
            med(&format!("core.mcs.schedule.{algorithm}"), 1e6),
        ));
    }
    metrics.extend([
        metric("core.mcs.slots", "count", solved_mean(|s| s.1 as f64)),
        metric(
            "core.mcs.fallback_slots",
            "count",
            solved_mean(|s| s.2 as f64),
        ),
        metric("trace.unexplained_share", "ratio", unexplained),
        metric(
            "trace.overhead_req_per_s",
            "1/s",
            rate(traced) - rate(plain),
        ),
    ]);
    metrics
}
