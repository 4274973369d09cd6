//! The four served workloads: their inputs (made from the seed before
//! anything is timed), their set-up, the timed closed loop and the output
//! checks that run after it.

use crate::stats::{error_label, Accounting, Arrivals, Reservoir};
use crate::trace::Tracer;
use crate::wire::{closed_loop, Conn, Idle, InFlight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rfid_core::verify::verify_covering_schedule;
use rfid_core::SchedulerRegistry;
use rfid_delta::{apply_ops, derived_key, key_hex, ScenarioDelta};
use rfid_model::{Deployment, RadiusModel, Scenario, ScenarioKind};
use rfid_serve::protocol::{decode_frame, encode_frame};
use rfid_serve::{
    CanonicalJob, JobSpec, Request, Response, Router, RouterConfig, ScheduleOutcome, ServeConfig,
    Server, Service, ServiceStats, Workload, PROTOCOL_VERSION,
};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads per server (the bench host has two cores).
pub const WORKERS: usize = 2;
/// Distinct jobs in the hot set of `hot-read` and `fleet-hits`.
pub const HOT_JOBS: usize = 64;
/// Length of the pre-generated hot frame cycle.
const HOT_FRAMES: usize = 1 << 14;
/// Reader counts of one `cold-solve` block; requests cycle through it.
pub const COLD_BLOCK: [usize; 8] = [1000, 1000, 5000, 1000, 20_000, 1000, 5000, 1000];
/// Upper bound on `cold-solve` requests in one run: about 15 times what a
/// 30 s window sends today.
const COLD_FRAMES: usize = 16_000;
/// Cache capacity of the `cold-solve` server: every request misses, and
/// a 20k-reader payload is megabytes, so the cache stays small.
const COLD_CACHE: usize = 32;
/// `delta-churn`: bases, their size, the dirty fraction per write and the
/// reads that follow each write. 32 bases, not four: `slots_per_job` is a
/// mean over the bases' schedule lengths, which differ by seed; with four
/// it moved by a quarter across seeds, with 16 by a tenth.
pub const DELTA_BASES: usize = 32;
pub const DELTA_READERS: usize = 833;
pub const DELTA_DIRTY: f64 = 0.01;
pub const DELTA_READS: usize = 3;
/// Latency samples kept per timed loop: all of them on the solving
/// workloads, a uniform sample of the hit workloads' millions.
const LATENCY_SAMPLES: usize = 1 << 18;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Sub-windows of the time the loop ran.
const SLICES: usize = 5;
/// Upper bound on writes in one run. Each write registers two specs in the
/// server's delta-base store beside the bases', and the store is cleared
/// when it reaches 1024 entries; staying below that keeps every chained
/// base resolvable.
pub const MAX_WRITES: usize = 490;
/// `delta-churn` reads `peak_rss_mb` when this write is answered. The
/// server keeps the specs of every write, so the high-water mark grows with
/// the writes a window gets through, and a faster write path must not read
/// as more memory. Every run so far reached it within 25 s of a 30 s window.
const RSS_AT_WRITE: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotRead,
    ColdSolve,
    DeltaChurn,
    FleetHits,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HotRead,
        Kind::ColdSolve,
        Kind::DeltaChurn,
        Kind::FleetHits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotRead => "hot-read",
            Kind::ColdSolve => "cold-solve",
            Kind::DeltaChurn => "delta-churn",
            Kind::FleetHits => "fleet-hits",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Connections, requests in flight per connection, and how the load generator
    /// waits between replies.
    ///
    /// `hot-read` keeps 64 in flight per connection: the server's event loop
    /// sleeps 500 µs whenever one scan of its sockets finds nothing to do,
    /// and at 16 in flight it raced the load generator for the next batch,
    /// so a run landed at about 35k or 55k to 75k req/s by how that race
    /// fell. At 64 there is always a batch waiting and both cores stay busy.
    pub fn shape(self) -> (usize, usize, Idle) {
        match self {
            Kind::HotRead => (2, 64, Idle::Yield),
            Kind::FleetHits => (2, 8, Idle::Yield),
            Kind::ColdSolve => (2, 1, Idle::Sleep(Duration::from_micros(50))),
            Kind::DeltaChurn => (1, 1, Idle::Sleep(Duration::from_micros(20))),
        }
    }

    /// Highest percentile the tail rule may report for all requests and
    /// for misses.
    pub fn tail_caps(self) -> (f64, f64) {
        match self {
            Kind::HotRead | Kind::FleetHits => (99.0, 75.0),
            // A quarter of the requests are writes, and their slowest tenth
            // moved with the host's load by more than the bounds allow; p90
            // of all requests and p75 of the writes moved less.
            Kind::DeltaChurn => (90.0, 75.0),
            // One request in eight is a 20k-reader solve, half of them GHC:
            // p95 falls inside the GHC ones, p90 inside the Alg 2 ones, and
            // p95 moved less from run to run.
            Kind::ColdSolve => (95.0, 95.0),
        }
    }
}

/// What a frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// v4 `Key` frame, no ops.
    Key,
    /// Full `Schedule` frame.
    Full,
    /// v3 `Delta` write.
    Delta,
    /// v4 `Key` frame with ops: a read of a delta write.
    KeyOps,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Key => "key",
            Class::Full => "full",
            Class::Delta => "delta",
            Class::KeyOps => "key+ops",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    pub class: Class,
    /// Job index (hot set, cold sequence) or write index (`delta-churn`).
    pub job: usize,
}

#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    pub key: u64,
}

/// What a delta write patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    Base(usize),
    Write(usize),
}

#[derive(Debug, Clone)]
pub struct DeltaWrite {
    pub parent: Parent,
    pub parent_key: u64,
    pub derived: u64,
    pub ops: Vec<ScenarioDelta>,
}

/// A workload's inputs, made from the seed alone.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub jobs: Vec<Job>,
    pub wire: Vec<Vec<u8>>,
    pub meta: Vec<FrameMeta>,
    pub writes: Vec<DeltaWrite>,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seed for item `i` of stream `stream` under the run seed.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(stream.wrapping_mul(0x1000_0000_01b3) ^ i))
}

/// The paper's density at any size: 24 tags per reader and the region
/// side growing with √n from the 50-reader, 100-unit evaluation setup,
/// radii Poisson with λ_R = 14, λ_r = 6.
pub fn paper_density(n_readers: usize) -> Scenario {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers,
        n_tags: 24 * n_readers,
        region_side: 100.0 * (n_readers as f64 / 50.0).sqrt(),
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 14.0,
            lambda_interrogation: 6.0,
        },
    }
}

/// The two algorithms every workload alternates between.
pub const ALGORITHMS: [&str; 2] = ["alg2-central", "ghc"];

fn job(registry: &SchedulerRegistry, scenario: Scenario, seed: u64, algorithm: &str) -> Job {
    let mut spec = JobSpec::new(Workload::Generated { scenario, seed });
    spec.algorithm = algorithm.to_string();
    let key = CanonicalJob::new(&spec, registry)
        .expect("generated jobs are valid")
        .key;
    Job { spec, key }
}

pub fn schedule_frame(spec: &JobSpec) -> Vec<u8> {
    encode_frame(&Request::Schedule {
        job: spec.clone(),
        deadline_ms: None,
        request_id: None,
        v: Some(PROTOCOL_VERSION),
    })
    .into_bytes()
}

fn key_frame(key: u64, ops: Option<Vec<ScenarioDelta>>) -> Vec<u8> {
    encode_frame(&Request::Key {
        key: key_hex(key),
        ops,
        request_id: None,
        v: Some(PROTOCOL_VERSION),
    })
    .into_bytes()
}

fn delta_frame(base: u64, ops: Vec<ScenarioDelta>) -> Vec<u8> {
    encode_frame(&Request::Delta {
        base: key_hex(base),
        ops,
        deadline_ms: None,
        request_id: None,
        v: Some(PROTOCOL_VERSION),
    })
    .into_bytes()
}

/// A fresh 1%-dirty op list against a deployment of `n_tags` tags:
/// mostly tag arrivals and departures, with an occasional reader move or
/// failure. Returns the ops and the tag count after them.
pub fn churn_ops(
    rng: &mut ChaCha8Rng,
    n_tags: usize,
    n_readers: usize,
    side: f64,
) -> (Vec<ScenarioDelta>, usize) {
    let count = ((n_tags as f64 * DELTA_DIRTY).round() as usize).max(1);
    let mut live = n_tags;
    let ops = (0..count)
        .map(|_| {
            let r: f64 = rng.random();
            let reader = rng.random_range(0..n_readers as u32);
            if r < 0.01 {
                ScenarioDelta::MoveReader {
                    reader,
                    x: rng.random_range(0.0..side),
                    y: rng.random_range(0.0..side),
                }
            } else if r < 0.02 {
                ScenarioDelta::SetReaderAlive {
                    reader,
                    alive: rng.random_bool(0.5),
                }
            } else if r < 0.51 || live == 0 {
                live += 1;
                ScenarioDelta::AddTag {
                    x: rng.random_range(0.0..side),
                    y: rng.random_range(0.0..side),
                }
            } else {
                live -= 1;
                ScenarioDelta::RemoveTag {
                    tag: rng.random_range(0..live as u32 + 1),
                }
            }
        })
        .collect();
    (ops, live)
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let registry = SchedulerRegistry::global();
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 1, 0));
        let mut inputs = Inputs {
            kind,
            seed,
            jobs: Vec::new(),
            wire: Vec::new(),
            meta: Vec::new(),
            writes: Vec::new(),
        };
        match kind {
            Kind::HotRead | Kind::FleetHits => {
                inputs.jobs = (0..HOT_JOBS)
                    .map(|i| {
                        let readers = if i % 2 == 0 { 12 } else { 48 };
                        let algorithm = ALGORITHMS[(i / 2) % 2];
                        let s = derive_seed(seed, 2, i as u64);
                        job(&registry, paper_density(readers), s, algorithm)
                    })
                    .collect();
                let key_share = if kind == Kind::HotRead { 0.7 } else { 0.5 };
                for _ in 0..HOT_FRAMES {
                    let j = rng.random_range(0..HOT_JOBS);
                    let (class, bytes) = if rng.random_bool(key_share) {
                        (Class::Key, key_frame(inputs.jobs[j].key, None))
                    } else {
                        (Class::Full, schedule_frame(&inputs.jobs[j].spec))
                    };
                    inputs.wire.push(bytes);
                    inputs.meta.push(FrameMeta { class, job: j });
                }
            }
            Kind::ColdSolve => {
                for i in 0..COLD_FRAMES {
                    let readers = COLD_BLOCK[i % COLD_BLOCK.len()];
                    let s = derive_seed(seed, 3, i as u64);
                    // Alternate per request and per block, so every size meets both
                    // algorithms.
                    let algorithm = ALGORITHMS[(i + i / COLD_BLOCK.len()) % 2];
                    let j = job(&registry, paper_density(readers), s, algorithm);
                    inputs.wire.push(schedule_frame(&j.spec));
                    inputs.meta.push(FrameMeta {
                        class: Class::Full,
                        job: i,
                    });
                    inputs.jobs.push(j);
                }
            }
            Kind::DeltaChurn => {
                let scenario = paper_density(DELTA_READERS);
                inputs.jobs = (0..DELTA_BASES)
                    .map(|b| {
                        let s = derive_seed(seed, 4, b as u64);
                        job(&registry, scenario, s, ALGORITHMS[b % 2])
                    })
                    .collect();
                // Tag count of each base and each write, for valid indices.
                let mut tags_after: Vec<usize> = Vec::with_capacity(MAX_WRITES);
                // Write `w` patches base `w % 32` or chains off write `w - 2`:
                // bases alternate algorithms, so every chain keeps one and
                // the writes split evenly between them.
                for w in 0..MAX_WRITES {
                    let parent = if w >= 2 && rng.random_bool(0.5) {
                        Parent::Write(w - 2)
                    } else {
                        Parent::Base(w % DELTA_BASES)
                    };
                    let (parent_key, parent_tags) = match parent {
                        Parent::Base(b) => (inputs.jobs[b].key, scenario.n_tags),
                        Parent::Write(p) => (inputs.writes[p].derived, tags_after[p]),
                    };
                    let (ops, tags) =
                        churn_ops(&mut rng, parent_tags, DELTA_READERS, scenario.region_side);
                    let derived = derived_key(parent_key, &ops);
                    inputs.wire.push(delta_frame(parent_key, ops.clone()));
                    inputs.meta.push(FrameMeta {
                        class: Class::Delta,
                        job: w,
                    });
                    for _ in 0..DELTA_READS {
                        inputs.wire.push(key_frame(parent_key, Some(ops.clone())));
                        inputs.meta.push(FrameMeta {
                            class: Class::KeyOps,
                            job: w,
                        });
                    }
                    tags_after.push(tags);
                    inputs.writes.push(DeltaWrite {
                        parent,
                        parent_key,
                        derived,
                        ops,
                    });
                }
            }
        }
        inputs
    }

    /// The algorithm a delta write inherits from its root base.
    pub fn write_algorithm(&self, mut w: usize) -> &str {
        loop {
            match self.writes[w].parent {
                Parent::Base(b) => return &self.jobs[b].spec.algorithm,
                Parent::Write(p) => w = p,
            }
        }
    }
}

/// The running system under test.
pub struct Live {
    pub servers: Vec<Server>,
    pub router: Option<Router>,
    /// Where the workload's load goes (the router when there is one).
    pub target: SocketAddr,
    /// Journal directory (`delta-churn`).
    pub data_dir: Option<PathBuf>,
}

impl Live {
    pub fn services(&self) -> Vec<Service> {
        self.servers.iter().map(Server::service).collect()
    }

    pub fn stats(&self) -> Vec<ServiceStats> {
        self.servers.iter().map(|s| s.service().stats()).collect()
    }

    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What one set-up produced besides the running system.
pub struct SetupOut {
    pub live: Live,
    pub seconds: f64,
    /// Served latency of every set-up solve that missed the cache.
    pub miss_ms: Vec<f64>,
    /// Per job: the reply a warm hit must return, byte for byte
    /// (`hot-read`, `fleet-hits`).
    pub expected: Vec<Vec<u8>>,
    /// Per job: the payload the set-up solve returned.
    pub payloads: Vec<String>,
}

/// Extracts `(key, cached, payload)` from a `Schedule` reply, or the error
/// label of an error reply. The payload is unescaped here: the vendored
/// `serde_json` re-validates the rest of the input once per character of a
/// string, which is quadratic in the payload's length.
pub fn parse_reply(line: &[u8]) -> Result<(String, bool, String), String> {
    if let Some((key, cached)) = reply_head(line) {
        let payload = reply_payload(line).ok_or("malformed payload string")?;
        return Ok((key.to_string(), cached, payload));
    }
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    match decode_frame::<Response>(text) {
        Ok(Response::Error { code, message }) => Err(error_label(code, &message)),
        Ok(other) => Err(format!("unexpected frame {other:?}")),
        Err(e) => Err(format!("unparseable reply: {e}")),
    }
}

/// The JSON string after `"payload":` in a `Schedule` reply line, unescaped.
fn reply_payload(line: &[u8]) -> Option<String> {
    const FIELD: &[u8] = b"\"payload\":\"";
    let start = line.windows(FIELD.len()).position(|w| w == FIELD)? + FIELD.len();
    let mut out = Vec::with_capacity(line.len() - start);
    let mut bytes = line[start..].iter().copied();
    loop {
        match bytes.next()? {
            b'"' => return String::from_utf8(out).ok(),
            b'\\' => match bytes.next()? {
                b'n' => out.push(b'\n'),
                b'r' => out.push(b'\r'),
                b't' => out.push(b'\t'),
                b'b' => out.push(8),
                b'f' => out.push(12),
                b'u' => {
                    let hex: Vec<u8> = bytes.by_ref().take(4).collect();
                    let code = u32::from_str_radix(std::str::from_utf8(&hex).ok()?, 16).ok()?;
                    let mut utf8 = [0u8; 4];
                    out.extend_from_slice(char::from_u32(code)?.encode_utf8(&mut utf8).as_bytes());
                }
                other => out.push(other),
            },
            b => out.push(b),
        }
    }
}

/// The error label of a reply that is not a successful `Schedule` frame.
fn failure_label(line: &[u8]) -> Option<String> {
    if line.starts_with(b"{\"Schedule\"") {
        return None;
    }
    Some(
        parse_reply(line)
            .err()
            .unwrap_or_else(|| "unexpected".into()),
    )
}

/// A cold reply turned into the warm hit for the same job: the envelope's
/// `cached` flag is the only difference.
pub fn as_hit(line: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(line);
    text.replacen("\"cached\":false", "\"cached\":true", 1)
        .into_bytes()
}

/// `(key, cached)` from the fixed-layout head of a `Schedule` reply line,
/// `{"Schedule":{"key":"<16 hex>","cached":<bool>,...`, without parsing
/// the payload.
pub fn reply_head(line: &[u8]) -> Option<(&str, bool)> {
    const OPEN: &[u8] = b"{\"Schedule\":{\"key\":\"";
    const CACHED: &[u8] = b"\",\"cached\":";
    let rest = line.strip_prefix(OPEN)?;
    let key = std::str::from_utf8(rest.get(..16)?).ok()?;
    let flag = rest.get(16..)?.strip_prefix(CACHED)?;
    if flag.starts_with(b"true,") {
        Some((key, true))
    } else if flag.starts_with(b"false,") {
        Some((key, false))
    } else {
        None
    }
}

/// `slots` and `fallback_slots` of a canonical payload, read without a
/// full parse: canonical JSON sorts keys, so the top-level `slots` is the
/// last `"slots":` in the text and `fallback_slots` is unique. Works on a
/// bare payload and on a reply line, where the payload is an escaped
/// string literal.
pub fn slot_counts(payload: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(payload).ok()?;
    let number_after = |pattern: &str, last: bool| -> Option<u64> {
        let at = if last {
            text.rfind(pattern)?
        } else {
            text.find(pattern)?
        } + pattern.len();
        let digits: String = text[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    let (fallback, slots) = if text.contains("\\\"slots\\\":") {
        ("\\\"fallback_slots\\\":", "\\\"slots\\\":")
    } else {
        ("\"fallback_slots\":", "\"slots\":")
    };
    Some((number_after(slots, true)?, number_after(fallback, false)?))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn start_server(config: ServeConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("bind a loopback port")
}

/// Starts the system and brings it to its measured state: hot sets
/// prewarmed, delta bases solved, a cold server warmed by one small solve
/// per algorithm.
pub fn setup(inputs: &Inputs, scratch: &Path, rep: usize, acct: &mut Accounting) -> SetupOut {
    let began = Instant::now();
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let mut data_dir = None;
    let (servers, router) = match inputs.kind {
        Kind::HotRead => (vec![start_server(config)], None),
        Kind::FleetHits => {
            let shards = vec![start_server(config.clone()), start_server(config)];
            let router = Router::start(
                "127.0.0.1:0",
                RouterConfig {
                    shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                    ..RouterConfig::default()
                },
            )
            .expect("bind a loopback port");
            (shards, Some(router))
        }
        Kind::ColdSolve => (
            vec![start_server(ServeConfig {
                cache_cap: COLD_CACHE,
                ..config
            })],
            None,
        ),
        Kind::DeltaChurn => {
            let dir = scratch.join(format!("journal-{rep}"));
            let _ = std::fs::remove_dir_all(&dir);
            data_dir = Some(dir.clone());
            // Every write is appended to the journal, but the journal is
            // never compacted. At the default policy a run wrote about 15
            // synced snapshots of the whole cache (up to 77 MB, 0.4 s each),
            // so `req_per_s` followed the shared disk and `peak_rss_mb` the
            // snapshot buffer, not the write path.
            (
                vec![start_server(ServeConfig {
                    data_dir: Some(dir),
                    snapshot_every: 0,
                    ..config
                })],
                None,
            )
        }
    };
    let target = router.as_ref().map_or(servers[0].addr(), Router::addr);
    let live = Live {
        servers,
        router,
        target,
        data_dir,
    };
    let mut conn = Conn::connect(live.target).expect("connect to the server");
    let mut out = SetupOut {
        live,
        seconds: 0.0,
        miss_ms: Vec::new(),
        expected: Vec::new(),
        payloads: Vec::new(),
    };
    let warm_jobs: Vec<Job> = match inputs.kind {
        Kind::ColdSolve => {
            let registry = SchedulerRegistry::global();
            let sizes = [COLD_BLOCK[0], COLD_BLOCK[2]];
            (0..4)
                .map(|i| {
                    let s = derive_seed(inputs.seed, 5, (rep * 4 + i) as u64);
                    job(&registry, paper_density(sizes[i / 2]), s, ALGORITHMS[i % 2])
                })
                .collect()
        }
        _ => inputs.jobs.clone(),
    };
    for j in &warm_jobs {
        let (line, rtt) = conn
            .roundtrip(&schedule_frame(&j.spec))
            .expect("set-up request");
        match parse_reply(&line) {
            Ok((key, cached, payload)) if key == key_hex(j.key) => {
                acct.succeeded("setup");
                if !cached {
                    out.miss_ms.push(rtt.as_secs_f64() * 1e3);
                }
                out.expected.push(as_hit(&line));
                out.payloads.push(payload);
            }
            Ok(_) => {
                acct.mismatched("setup");
                out.expected.push(Vec::new());
                out.payloads.push(String::new());
            }
            Err(label) => {
                acct.error("setup", label);
                out.expected.push(Vec::new());
                out.payloads.push(String::new());
            }
        }
    }
    out.seconds = began.elapsed().as_secs_f64();
    out
}

/// Everything one timed window observed.
#[derive(Default)]
pub struct LoopOut {
    pub replies: u64,
    pub wall: Duration,
    /// Latency of every reply, or a uniform sample of them past
    /// [`LATENCY_SAMPLES`].
    pub latency_ms: Reservoir,
    pub miss_ms: Vec<f64>,
    /// `(slots, fallback_slots)` of every payload solved in the window.
    pub slots: Vec<(u64, u64)>,
    /// `(request, frame)` of every reply that passed its check, in
    /// arrival order (traced runs only).
    pub answered: Vec<(u64, usize)>,
    /// Replies kept for checks after the window, by frame index.
    pub kept: HashMap<usize, Vec<u8>>,
    /// The frame a following window continues from.
    pub next_frame: usize,
    /// Reply rate in each fifth of the time the loop ran.
    pub slice_rates: Vec<f64>,
    /// `VmHWM` when write [`RSS_AT_WRITE`] was answered (`delta-churn`).
    pub rss_at_write_mb: Option<f64>,
}

/// Frames `cold-solve` keeps for verification: the first 1k-reader job of
/// each algorithm. Larger payloads are checked by key, cached flag and slot
/// counts only: the vendored serde parse is superlinear in payload size
/// (seconds for the 760 KB of a 5k-reader payload) and verification is
/// quadratic in active readers.
fn cold_sample(frame: usize) -> bool {
    frame < 2
}

/// The timed closed loop: `seconds` of load on `live`, every reply checked
/// against what the set-up established.
pub fn timed_loop(
    inputs: &Inputs,
    setup: &SetupOut,
    seconds: f64,
    start_frame: usize,
    mut tracer: Option<&mut Tracer>,
    acct: &mut Accounting,
) -> LoopOut {
    let (connections, window, idle) = inputs.kind.shape();
    let mut conns: Vec<Conn> = (0..connections)
        .map(|_| Conn::connect(setup.live.target).expect("connect to the server"))
        .collect();
    let mut out = LoopOut::default();
    // A `delta-churn` window starts on a write, so every read follows its
    // own write.
    let group = if inputs.kind == Kind::DeltaChurn {
        1 + DELTA_READS
    } else {
        1
    };
    let mut next_frame = start_frame.div_ceil(group) * group;
    let checked_writes = delta_sample(inputs.seed);
    let frames = inputs.wire.len();
    let cycles = matches!(inputs.kind, Kind::HotRead | Kind::FleetHits);
    let mut ran_out = false;
    let mut next = |_conn: usize| -> Option<usize> {
        if !cycles && next_frame >= frames {
            ran_out = true;
            return None;
        }
        let f = next_frame % frames;
        next_frame += 1;
        Some(f)
    };
    // The reply each `delta-churn` read must equal: the write's, marked hit.
    let mut write_hit: Vec<u8> = Vec::new();
    // Per-request ids and frames feed only the traced run's replay; the
    // other per-reply records take the same memory at any reply rate, so
    // `peak_rss_mb` does not grow with throughput.
    let keep_ids = tracer.is_some();
    out.latency_ms = Reservoir::new(
        LATENCY_SAMPLES,
        derive_seed(inputs.seed, 8, start_frame as u64),
    );
    // Reply times from the start of the loop; the median rate over fifths
    // of the time it ran is `req_per_s`, which a short stall elsewhere on
    // the host moves less than the mean.
    let started = Instant::now();
    let mut arrivals = Arrivals::default();
    let mut on_reply = |_conn: usize, req: InFlight, line: &[u8], at: Instant| {
        let ms = at.duration_since(req.sent).as_secs_f64() * 1e3;
        arrivals.record(at.duration_since(started));
        out.latency_ms.push(ms);
        if let Some(t) = tracer.as_deref_mut() {
            t.record("client.request", req.request, req.sent, at);
        }
        let meta = inputs.meta[req.frame];
        let class = meta.class.label();
        if let Some(label) = failure_label(line) {
            acct.error(class, label);
            return;
        }
        let passed = match meta.class {
            Class::Key | Class::Full if inputs.kind != Kind::ColdSolve => {
                line == setup.expected[meta.job].as_slice()
            }
            Class::Key | Class::Full | Class::Delta => {
                let want = match meta.class {
                    Class::Delta => inputs.writes[meta.job].derived,
                    _ => inputs.jobs[meta.job].key,
                };
                let fresh =
                    reply_head(line).is_some_and(|(key, cached)| !cached && key == key_hex(want));
                match slot_counts(line) {
                    Some(counts) if fresh => {
                        out.miss_ms.push(ms);
                        out.slots.push(counts);
                        let keep = match meta.class {
                            Class::Delta => {
                                write_hit = as_hit(line);
                                if meta.job == RSS_AT_WRITE {
                                    out.rss_at_write_mb = Some(peak_rss_mb());
                                }
                                checked_writes.contains(&meta.job)
                            }
                            _ => cold_sample(req.frame),
                        };
                        if keep {
                            out.kept.insert(req.frame, line.to_vec());
                        }
                        true
                    }
                    _ => false,
                }
            }
            Class::KeyOps => line == write_hit.as_slice(),
        };
        if !passed {
            acct.mismatched(class);
            return;
        }
        acct.succeeded(class);
        if keep_ids {
            out.answered.push((req.request, req.frame));
        }
    };
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (replies, wall) = closed_loop(
        &mut conns,
        &inputs.wire,
        window,
        until,
        idle,
        &mut next,
        &mut on_reply,
    )
    .expect("loopback connection failed mid-run");
    out.replies = replies;
    out.wall = wall;
    out.next_frame = next_frame;
    out.slice_rates = arrivals.slice_rates(SLICES);
    if ran_out {
        println!(
            "{} ran out of frames after {:.2} s of a {seconds} s window: rates are over the time it ran",
            inputs.kind.name(),
            wall.as_secs_f64()
        );
    }
    out
}

/// Writes whose payload is compared with an in-process cold solve: three,
/// seeded, among the first 24 (which every run completes).
fn delta_sample(seed: u64) -> BTreeSet<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 6, 0));
    (0..3).map(|_| rng.random_range(0..24)).collect()
}

/// The deployment a delta write patched, as the server materialises it:
/// a root base is generated; a chained base is the canonical form of the
/// parent write's patched deployment.
pub fn write_base(inputs: &Inputs, w: usize, registry: &SchedulerRegistry) -> Deployment {
    match inputs.writes[w].parent {
        Parent::Base(b) => match &inputs.jobs[b].spec.workload {
            Workload::Generated { scenario, seed } => scenario.generate(*seed),
            Workload::Explicit { deployment } => deployment.clone(),
        },
        Parent::Write(p) => {
            let parent = write_base(inputs, p, registry);
            let patched = apply_ops(&parent, &inputs.writes[p].ops).expect("generated ops apply");
            canonical_deployment(patched.deployment, registry)
        }
    }
}

pub fn canonical_deployment(deployment: Deployment, registry: &SchedulerRegistry) -> Deployment {
    let spec = JobSpec::new(Workload::Explicit { deployment });
    match CanonicalJob::new(&spec, registry)
        .expect("patched deployments are valid")
        .spec
        .workload
    {
        Workload::Explicit { deployment } => deployment,
        Workload::Generated { .. } => unreachable!("canonicalisation keeps the workload kind"),
    }
}

/// Output checks that run after the window; each check is one attempt in
/// the accounting.
pub fn verify(inputs: &Inputs, setup: &SetupOut, out: &LoopOut, acct: &mut Accounting) {
    let registry = SchedulerRegistry::global();
    // `hits + misses + coalesced == requests` on every server. A delta
    // write that misses counts two cache misses against one request
    // (`Service::submit_delta` probes the derived key before
    // `submit_with_id` probes the canonical one), so the check also accepts
    // a surplus of exactly one miss per delta write sent: it holds before
    // and after that double count is fixed, and fails on any other gap.
    let delta_writes = acct.sent("delta");
    for stats in setup.live.stats() {
        let counted = stats.cache_hits + stats.cache_misses + stats.coalesced;
        if counted != stats.requests {
            println!(
                "stats invariant: hits+misses+coalesced {counted}, requests {}, delta writes {delta_writes}",
                stats.requests
            );
        }
        acct.check(
            "stats-invariant",
            counted == stats.requests || counted == stats.requests + delta_writes,
        );
    }
    match inputs.kind {
        Kind::HotRead | Kind::FleetHits => {
            // Key and full frames were checked against the same expected
            // line per job, so they agree whenever both passed.
        }
        Kind::ColdSolve => {
            let mut frames: Vec<&usize> = out.kept.keys().collect();
            frames.sort_unstable();
            for &f in frames {
                let ok = parse_reply(&out.kept[&f])
                    .is_ok_and(|(_, _, payload)| check_outcome(&payload, &inputs.jobs[f].spec));
                acct.check("verify-schedule", ok);
            }
        }
        Kind::DeltaChurn => {
            let service = Service::start(ServeConfig {
                workers: 1,
                cache_cap: 0,
                ..ServeConfig::default()
            })
            .expect("in-process service");
            let mut frames: Vec<&usize> = out.kept.keys().collect();
            frames.sort_unstable();
            for &f in frames {
                let w = inputs.meta[f].job;
                let base = write_base(inputs, w, &registry);
                let patched = apply_ops(&base, &inputs.writes[w].ops).expect("generated ops apply");
                let mut spec = JobSpec::new(Workload::Explicit {
                    deployment: patched.deployment,
                });
                spec.algorithm = inputs.write_algorithm(w).to_string();
                // The served line must be exactly the reply a cold solve
                // renders under the derived key.
                let ok = service.schedule(&spec, None).is_ok_and(|cold| {
                    let expected = encode_frame(&Response::Schedule {
                        key: key_hex(inputs.writes[w].derived),
                        cached: false,
                        payload: cold.payload.to_string(),
                    });
                    out.kept[&f] == expected.as_bytes()
                });
                acct.check("verify-delta", ok);
            }
            service.shutdown(true);
        }
    }
}

/// A served payload parses as a `ScheduleOutcome` whose totals agree with
/// its schedule and its tag count, and whose schedule verifies as a
/// covering schedule of the regenerated deployment.
fn check_outcome(payload: &str, spec: &JobSpec) -> bool {
    let Ok(outcome) = serde_json::from_str::<ScheduleOutcome>(payload) else {
        return false;
    };
    let Workload::Generated { scenario, seed } = &spec.workload else {
        return false;
    };
    let summaries_served: usize = outcome.slot_summaries.iter().map(|s| s.tags_served).sum();
    outcome.algorithm == spec.algorithm
        && outcome.complete
        && outcome.slots == outcome.schedule.slots.len()
        && outcome.slot_summaries.len() == outcome.slots
        && outcome.fallback_slots == outcome.schedule.fallback_slots()
        && outcome.tags_served == outcome.schedule.tags_served()
        && summaries_served == outcome.tags_served
        && outcome.tags_served + outcome.uncoverable == scenario.n_tags
        && slot_counts(payload.as_bytes())
            == Some((outcome.slots as u64, outcome.fallback_slots as u64))
        && verify_covering_schedule(&scenario.generate(*seed), &outcome.schedule).is_ok()
}

/// One measured run: set up [`SETUP_REPS`] times, keep the last system,
/// drive it for `seconds`, check the outputs, tear down.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub setup_miss_ms: Vec<f64>,
    pub setup_slots: Vec<(u64, u64)>,
    pub out: LoopOut,
    pub acct: Accounting,
    pub peak_rss_mb: f64,
}

pub fn measure(inputs: &Inputs, scratch: &Path, seconds: f64) -> Run {
    let mut acct = Accounting::default();
    let mut setup_s = Vec::new();
    let mut setup_miss_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let s = setup(inputs, scratch, rep, &mut acct);
        setup_s.push(s.seconds);
        setup_miss_ms.extend_from_slice(&s.miss_ms);
        if let Some(previous) = kept.replace(s) {
            previous.live.shutdown();
        }
    }
    let setup = kept.expect("at least one set-up");
    let setup_slots = setup
        .payloads
        .iter()
        .filter_map(|p| slot_counts(p.as_bytes()))
        .collect();
    let out = timed_loop(inputs, &setup, seconds, 0, None, &mut acct);
    verify(inputs, &setup, &out, &mut acct);
    setup.live.shutdown();
    Run {
        setup_s,
        setup_miss_ms,
        setup_slots,
        peak_rss_mb: out.rss_at_write_mb.unwrap_or_else(peak_rss_mb),
        out,
        acct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing_matches_the_wire_encoding() {
        let payload = "{\"a\":\"q\\\"x\\\\y\\u0001\",\"fallback_slots\":2,\"slots\":7}";
        let line = encode_frame(&Response::Schedule {
            key: "00000000000000ff".into(),
            cached: false,
            payload: payload.into(),
        });
        let (key, cached, back) = parse_reply(line.as_bytes()).unwrap();
        assert_eq!(
            (key.as_str(), cached, back.as_str()),
            ("00000000000000ff", false, payload)
        );
        assert_eq!(
            reply_head(line.as_bytes()),
            Some(("00000000000000ff", false))
        );
        assert_eq!(slot_counts(line.as_bytes()), Some((7, 2)));
        assert_eq!(slot_counts(payload.as_bytes()), Some((7, 2)));
        assert_eq!(
            reply_head(&as_hit(line.as_bytes())),
            Some(("00000000000000ff", true))
        );
        let error = encode_frame(&Response::Error {
            code: 404,
            message: "key-miss: not cached".into(),
        });
        assert_eq!(parse_reply(error.as_bytes()).unwrap_err(), "key-miss");
    }
}
