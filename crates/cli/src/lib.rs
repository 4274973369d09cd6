#![warn(missing_docs)]
//! # rfid-cli
//!
//! Command-line front end: generate deployments, run schedulers, inspect
//! derived structures and render SVG snapshots without writing any Rust.
//!
//! ```text
//! mrrfid generate --readers 50 --tags 1200 --seed 42 --out depl.json
//! mrrfid inspect  --deployment depl.json
//! mrrfid schedule --deployment depl.json --algorithm alg1 --mode mcs
//! mrrfid render   --deployment depl.json --algorithm alg2 --out slot.svg
//! ```
//!
//! The library half hosts the parse/dispatch logic so it is unit-testable;
//! the `mrrfid` binary is a thin `main`.

use rfid_core::{
    covering_schedule_with, AlgorithmKind, McsOptions, OneShotInput, OneShotScheduler,
    SchedulerRegistry,
};
use rfid_delta::{apply_ops, derived_key, key_hex, ScenarioDelta};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment, RadiusModel, Scenario, ScenarioKind, TagSet};
use rfid_obs::Recorder;
use rfid_serve::{
    CanonicalJob, ClientError, FailoverPolicy, JobSpec, Router, RouterConfig, ScheduleReply,
    ServeConfig, Server, TcpClient, Workload,
};
use rfid_sim::{aggregate_series, run_sweep, SweepAxis, SweepConfig};
use std::collections::BTreeMap;
use std::time::Duration;

/// A structured CLI error: every failure mode carries a category with a
/// stable process exit code, so scripts (and CI) can branch on *why* a
/// command failed instead of grepping stderr. Replaces the old bare
/// `String` errors, under which an unwritable `--metrics-out` path and a
/// typoed flag were indistinguishable `exit 1`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad flags or arguments (exit 2).
    Usage(String),
    /// A filesystem read/write failed (exit 3).
    Io {
        /// The offending path.
        path: String,
        /// Full description, including the OS error.
        message: String,
    },
    /// An input file parsed but was malformed (exit 4).
    Data(String),
    /// The serve daemon (or the transport to it) reported an error
    /// (exit 5).
    Remote(String),
    /// The operation itself failed — solver stall, invalid schedule
    /// (exit 1).
    Failed(String),
}

impl CliError {
    /// The process exit code for this error category.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failed(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Data(_) => 4,
            CliError::Remote(_) => 5,
        }
    }

    fn io(path: &str, action: &str, err: impl std::fmt::Display) -> Self {
        CliError::Io {
            path: path.to_string(),
            message: format!("{action} {path}: {err}"),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::Remote(m) | CliError::Failed(m) => {
                f.write_str(m)
            }
            CliError::Io { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ClientError> for CliError {
    fn from(err: ClientError) -> Self {
        CliError::Remote(err.to_string())
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a deployment and write it as JSON.
    Generate {
        /// Number of readers.
        readers: usize,
        /// Number of tags.
        tags: usize,
        /// Deployment seed.
        seed: u64,
        /// Poisson mean of interference radii λ_R.
        lambda_interference: f64,
        /// Poisson mean of interrogation radii λ_r.
        lambda_interrogation: f64,
        /// Side length of the square region.
        region: f64,
        /// Output path.
        out: String,
    },
    /// Print derived statistics of a stored deployment.
    Inspect {
        /// Deployment JSON path.
        deployment: String,
    },
    /// Run a scheduler on a stored deployment.
    Schedule {
        /// Deployment JSON path.
        deployment: String,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Seed for randomised algorithms.
        seed: u64,
        /// Run the full covering schedule instead of a single slot.
        mcs: bool,
        /// Optional path to save the covering schedule as JSON.
        out: Option<String>,
        /// Optional path for the metrics snapshot (`.csv` = per-slot CSV,
        /// anything else = JSON with counters + per-slot records).
        metrics_out: Option<String>,
        /// Print the recorded counter/histogram snapshot after the run.
        trace: bool,
    },
    /// Render a one-shot activation as SVG.
    Render {
        /// Deployment JSON path.
        deployment: String,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Seed for randomised algorithms.
        seed: u64,
        /// SVG output path.
        out: String,
    },
    /// Print structural statistics of a stored deployment.
    Stats {
        /// Deployment JSON path.
        deployment: String,
    },
    /// Verify a stored covering schedule against a deployment.
    Verify {
        /// Deployment JSON path.
        deployment: String,
        /// Schedule JSON path (written by `schedule --mode mcs --out …`).
        schedule: String,
    },
    /// Run a λ sweep and print a paper-style figure table.
    Sweep {
        /// Which λ varies.
        axis: SweepAxis,
        /// The swept λ values.
        values: Vec<f64>,
        /// The other axis' fixed λ.
        fixed: f64,
        /// Trials per point.
        trials: usize,
        /// `true` = covering-schedule size, `false` = one-shot weight.
        mcs: bool,
        /// Readers per deployment.
        readers: usize,
        /// Tags per deployment.
        tags: usize,
    },
    /// Print Algorithm 3's execution trace on a stored deployment.
    Trace {
        /// Deployment JSON path.
        deployment: String,
    },
    /// Run the scheduling daemon (blocks until a shutdown frame).
    Serve {
        /// Listen address, e.g. `127.0.0.1:7401`.
        addr: String,
        /// Worker threads solving cache misses.
        workers: usize,
        /// Schedule-cache capacity in entries (0 disables caching).
        cache_cap: usize,
        /// Bounded work-queue capacity (a full queue rejects with 429).
        queue_cap: usize,
        /// Optional cache TTL in seconds.
        cache_ttl_secs: Option<u64>,
        /// Directory for the cache journal (omit = RAM-only).
        data_dir: Option<String>,
        /// Compact the journal after this many appends (0 = never).
        snapshot_every: usize,
        /// Comma-separated peer addresses to gossip cache entries to.
        peers: Vec<String>,
    },
    /// Run the shard router: consistent-hash content keys across a
    /// daemon fleet (blocks until a shutdown frame).
    Route {
        /// Listen address, e.g. `127.0.0.1:7400`.
        addr: String,
        /// Shard daemon addresses (at least one).
        shards: Vec<String>,
    },
    /// Send one request to a running daemon.
    Request {
        /// Daemon address, e.g. `127.0.0.1:7401`.
        addr: String,
        /// Scenario (or deployment) JSON path for a schedule request.
        scenario: Option<String>,
        /// Algorithm label or alias.
        algo: String,
        /// Seed for randomised algorithms.
        algo_seed: u64,
        /// Deployment seed fed to `Scenario::generate`.
        gen_seed: u64,
        /// Optional server-side deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Run under the resilient fault policy.
        resilient: bool,
        /// Optional path to save the raw response payload.
        payload_out: Option<String>,
        /// Fetch service stats instead of scheduling.
        stats: bool,
        /// Ask the daemon to shut down gracefully.
        shutdown: bool,
        /// Comma-separated fallback addresses; schedule requests retry
        /// against them (after `addr`) on connect failure, severed
        /// responses or a draining server.
        failover: Vec<String>,
        /// Path to a `ScenarioDelta` ops JSON array — sends a protocol
        /// v3 delta frame instead of a full scenario.
        delta: Option<String>,
        /// Base content key (fixed-width hex) the delta applies to.
        base: Option<String>,
        /// Content key (fixed-width hex) — sends a protocol v4 key
        /// frame: the server answers from cache without re-reading the
        /// scenario, or a structured `key-miss` 404.
        key: Option<String>,
    },
    /// Apply a delta ops file to a base job locally, mirroring the
    /// server's canonicalise → materialise → patch pipeline: write the
    /// patched deployment and print the base and derived content keys.
    Patch {
        /// Base scenario (or deployment) JSON path.
        scenario: String,
        /// `ScenarioDelta` ops JSON array path.
        ops: String,
        /// Output path for the patched deployment JSON.
        out: String,
        /// Algorithm of the base job (part of its content key).
        algo: String,
        /// Algorithm seed of the base job.
        algo_seed: u64,
        /// Generation seed of the base job (Generated workloads).
        gen_seed: u64,
        /// Resilient flag of the base job.
        resilient: bool,
    },
    /// Print usage.
    Help,
}

/// Usage text shown by `mrrfid help` and on parse errors.
pub const USAGE: &str = "\
mrrfid — multi-reader RFID activation scheduling (IPDPS'11 reproduction)

USAGE:
  mrrfid generate --out FILE [--readers N] [--tags M] [--seed S]
                  [--lambda-interference λR] [--lambda-interrogation λr]
                  [--region SIDE]
  mrrfid inspect  --deployment FILE
  mrrfid schedule --deployment FILE [--algorithm NAME] [--seed S] [--mode oneshot|mcs]
                  [--metrics-out FILE.json|FILE.csv] [--trace]
  mrrfid render   --deployment FILE --out FILE.svg [--algorithm NAME] [--seed S]
  mrrfid sweep    [--axis interrogation|interference] [--values 3,5,7,9]
                  [--fixed 14] [--trials 5] [--metric oneshot|mcs]
                  [--readers 50] [--tags 1200]
  mrrfid trace    --deployment FILE
  mrrfid stats    --deployment FILE
  mrrfid verify   --deployment FILE --schedule FILE
  mrrfid serve    [--addr HOST:PORT] [--workers N] [--cache-cap N]
                  [--queue-cap N] [--cache-ttl-secs S] [--data-dir DIR]
                  [--snapshot-every N] [--peers HOST:PORT,HOST:PORT]
  mrrfid route    --shards HOST:PORT,HOST:PORT [--addr HOST:PORT]
  mrrfid request  [--addr HOST:PORT] --scenario FILE [--algo NAME] [--seed S]
                  [--gen-seed G] [--deadline-ms D] [--resilient]
                  [--payload-out FILE] [--failover HOST:PORT,HOST:PORT]
  mrrfid request  [--addr HOST:PORT] --delta OPS.json --base KEY
                  [--deadline-ms D] [--payload-out FILE]
                  [--failover HOST:PORT,HOST:PORT]
  mrrfid request  [--addr HOST:PORT] --key KEY [--payload-out FILE]
  mrrfid request  [--addr HOST:PORT] --stats
  mrrfid request  [--addr HOST:PORT] --shutdown
  mrrfid patch    --scenario FILE --ops OPS.json --out FILE
                  [--algo NAME] [--seed S] [--gen-seed G] [--resilient]
  mrrfid help

ALGORITHMS: alg1 (PTAS) | alg2 (centralized) | alg3 (distributed)
            ca (Colorwave) | ghc (hill climbing) | exact

EXIT CODES: 0 ok | 1 operation failed | 2 usage | 3 filesystem
            4 malformed data | 5 server/transport error
";

/// Default daemon address shared by `serve` and `request`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7401";

/// Default router listen address (`route`). One below [`DEFAULT_ADDR`]
/// so a router and its first shard co-exist on one host untouched.
pub const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7400";

fn parse_algorithm(s: &str) -> Result<AlgorithmKind, CliError> {
    SchedulerRegistry::global()
        .parse(s)
        .map_err(CliError::Usage)
}

/// Parses `--key [value]` pairs, rejecting any key not among `cmd`'s
/// space-separated `known` flags: a misspelt flag must fail, not fall back
/// to its default.
fn flags(args: &[String], cmd: &str, known: &str) -> Result<BTreeMap<String, String>, CliError> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected --flag, got '{}'", args[i])))?;
        if !known.split(' ').any(|k| k == key) {
            return Err(CliError::Usage(format!("{cmd} does not take --{key}")));
        }
        // A flag followed by another flag (or nothing) is boolean.
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                map.insert(key.to_string(), v.clone());
                i += 2;
            }
            _ => {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
    }
    Ok(map)
}

fn get_parse<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key}: cannot parse '{v}'"))),
    }
}

fn require(flags: &BTreeMap<String, String>, key: &str, context: &str) -> Result<String, CliError> {
    flags
        .get(key)
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{context} requires --{key}")))
}

/// Parses a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let f = flags(
                rest,
                "generate",
                "readers tags seed lambda-interference lambda-interrogation region out",
            )?;
            Ok(Command::Generate {
                readers: get_parse(&f, "readers", 50)?,
                tags: get_parse(&f, "tags", 1200)?,
                seed: get_parse(&f, "seed", 42)?,
                lambda_interference: get_parse(&f, "lambda-interference", 14.0)?,
                lambda_interrogation: get_parse(&f, "lambda-interrogation", 6.0)?,
                region: get_parse(&f, "region", 100.0)?,
                out: require(&f, "out", "generate")?,
            })
        }
        "inspect" => {
            let f = flags(rest, "inspect", "deployment")?;
            Ok(Command::Inspect {
                deployment: require(&f, "deployment", "inspect")?,
            })
        }
        "schedule" => {
            let f = flags(
                rest,
                "schedule",
                "deployment algorithm seed mode out metrics-out trace",
            )?;
            let mode = f.get("mode").map(String::as_str).unwrap_or("oneshot");
            if mode != "oneshot" && mode != "mcs" {
                return Err(CliError::Usage(format!(
                    "--mode must be oneshot or mcs, got '{mode}'"
                )));
            }
            Ok(Command::Schedule {
                deployment: require(&f, "deployment", "schedule")?,
                algorithm: parse_algorithm(
                    f.get("algorithm").map(String::as_str).unwrap_or("alg2"),
                )?,
                seed: get_parse(&f, "seed", 0)?,
                mcs: mode == "mcs",
                out: f.get("out").cloned(),
                metrics_out: f.get("metrics-out").cloned(),
                trace: f.contains_key("trace"),
            })
        }
        "render" => {
            let f = flags(rest, "render", "deployment algorithm seed out")?;
            Ok(Command::Render {
                deployment: require(&f, "deployment", "render")?,
                algorithm: parse_algorithm(
                    f.get("algorithm").map(String::as_str).unwrap_or("alg2"),
                )?,
                seed: get_parse(&f, "seed", 0)?,
                out: require(&f, "out", "render")?,
            })
        }
        "sweep" => {
            let f = flags(
                rest,
                "sweep",
                "axis values fixed trials metric readers tags",
            )?;
            let axis = match f.get("axis").map(String::as_str).unwrap_or("interrogation") {
                "interrogation" => SweepAxis::Interrogation,
                "interference" => SweepAxis::Interference,
                other => {
                    return Err(CliError::Usage(format!(
                        "--axis must be interrogation|interference, got '{other}'"
                    )))
                }
            };
            let values: Vec<f64> = f
                .get("values")
                .map(String::as_str)
                .unwrap_or("3,5,7,9")
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad λ value '{v}'")))
                })
                .collect::<Result<_, _>>()?;
            let metric = f.get("metric").map(String::as_str).unwrap_or("oneshot");
            if metric != "oneshot" && metric != "mcs" {
                return Err(CliError::Usage(format!(
                    "--metric must be oneshot or mcs, got '{metric}'"
                )));
            }
            Ok(Command::Sweep {
                axis,
                values,
                fixed: get_parse(&f, "fixed", 14.0)?,
                trials: get_parse(&f, "trials", 5)?,
                mcs: metric == "mcs",
                readers: get_parse(&f, "readers", 50)?,
                tags: get_parse(&f, "tags", 1200)?,
            })
        }
        "trace" => {
            let f = flags(rest, "trace", "deployment")?;
            Ok(Command::Trace {
                deployment: require(&f, "deployment", "trace")?,
            })
        }
        "stats" => {
            let f = flags(rest, "stats", "deployment")?;
            Ok(Command::Stats {
                deployment: require(&f, "deployment", "stats")?,
            })
        }
        "verify" => {
            let f = flags(rest, "verify", "deployment schedule")?;
            Ok(Command::Verify {
                deployment: require(&f, "deployment", "verify")?,
                schedule: require(&f, "schedule", "verify")?,
            })
        }
        "serve" => {
            let f = flags(
                rest,
                "serve",
                "addr workers cache-cap queue-cap cache-ttl-secs data-dir snapshot-every peers",
            )?;
            let defaults = ServeConfig::default();
            Ok(Command::Serve {
                addr: f
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                workers: get_parse(&f, "workers", defaults.workers)?,
                cache_cap: get_parse(&f, "cache-cap", defaults.cache_cap)?,
                queue_cap: get_parse(&f, "queue-cap", defaults.queue_cap)?,
                cache_ttl_secs: match f.get("cache-ttl-secs") {
                    None => None,
                    Some(_) => Some(get_parse(&f, "cache-ttl-secs", 0u64)?),
                },
                data_dir: f.get("data-dir").cloned(),
                snapshot_every: get_parse(&f, "snapshot-every", defaults.snapshot_every)?,
                peers: parse_addr_list(f.get("peers")),
            })
        }
        "route" => {
            let f = flags(rest, "route", "addr shards")?;
            let shards = parse_addr_list(f.get("shards"));
            if shards.is_empty() {
                return Err(CliError::Usage(
                    "route requires --shards HOST:PORT[,HOST:PORT…]".to_string(),
                ));
            }
            Ok(Command::Route {
                addr: f
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| DEFAULT_ROUTER_ADDR.to_string()),
                shards,
            })
        }
        "request" => {
            let f = flags(
                rest,
                "request",
                "addr scenario algo seed gen-seed deadline-ms resilient payload-out failover \
                 delta base key stats shutdown",
            )?;
            let stats = f.contains_key("stats");
            let shutdown = f.contains_key("shutdown");
            let scenario = f.get("scenario").cloned();
            let delta = f.get("delta").cloned();
            let base = f.get("base").cloned();
            let key = f.get("key").cloned();
            if !stats && !shutdown && scenario.is_none() && delta.is_none() && key.is_none() {
                return Err(CliError::Usage(
                    "request needs --scenario FILE, --delta OPS.json, --key KEY, --stats \
                     or --shutdown"
                        .to_string(),
                ));
            }
            if key.is_some() && (scenario.is_some() || delta.is_some()) {
                return Err(CliError::Usage(
                    "--key is exclusive with --scenario/--delta: a key frame carries \
                     nothing but the content key"
                        .to_string(),
                ));
            }
            if delta.is_some() && base.is_none() {
                return Err(CliError::Usage(
                    "--delta requires --base KEY (the base scenario's content key)".to_string(),
                ));
            }
            if delta.is_some() && scenario.is_some() {
                return Err(CliError::Usage(
                    "--delta and --scenario are mutually exclusive: a delta frame \
                     references its base by content key"
                        .to_string(),
                ));
            }
            Ok(Command::Request {
                addr: f
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                scenario,
                algo: f.get("algo").cloned().unwrap_or_else(|| "alg2".to_string()),
                algo_seed: get_parse(&f, "seed", 0)?,
                gen_seed: get_parse(&f, "gen-seed", 0)?,
                deadline_ms: match f.get("deadline-ms") {
                    None => None,
                    Some(_) => Some(get_parse(&f, "deadline-ms", 0u64)?),
                },
                resilient: f.contains_key("resilient"),
                payload_out: f.get("payload-out").cloned(),
                stats,
                shutdown,
                failover: parse_addr_list(f.get("failover")),
                delta,
                base,
                key,
            })
        }
        "patch" => {
            let f = flags(
                rest,
                "patch",
                "scenario ops out algo seed gen-seed resilient",
            )?;
            Ok(Command::Patch {
                scenario: require(&f, "scenario", "patch")?,
                ops: require(&f, "ops", "patch")?,
                out: require(&f, "out", "patch")?,
                algo: f.get("algo").cloned().unwrap_or_else(|| "alg2".to_string()),
                algo_seed: get_parse(&f, "seed", 0)?,
                gen_seed: get_parse(&f, "gen-seed", 0)?,
                resilient: f.contains_key("resilient"),
            })
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

/// Splits a comma-separated address flag; `None` (flag absent) and empty
/// segments both yield nothing.
fn parse_addr_list(value: Option<&String>) -> Vec<String> {
    value
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default()
}

fn load_deployment(path: &str) -> Result<Deployment, CliError> {
    let body = std::fs::read_to_string(path).map_err(|e| CliError::io(path, "read", e))?;
    serde_json::from_str(&body).map_err(|e| CliError::Data(format!("parse {path}: {e}")))
}

/// Executes a command; returns the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            readers,
            tags,
            seed,
            lambda_interference,
            lambda_interrogation,
            region,
            out,
        } => {
            let d = Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: readers,
                n_tags: tags,
                region_side: region,
                radius_model: RadiusModel::PoissonPair {
                    lambda_interference,
                    lambda_interrogation,
                },
            }
            .generate(seed);
            let json = serde_json::to_string(&d).map_err(|e| CliError::Data(e.to_string()))?;
            std::fs::write(&out, json).map_err(|e| CliError::io(&out, "write", e))?;
            Ok(format!(
                "wrote {readers} readers / {tags} tags (seed {seed}) to {out}\n"
            ))
        }
        Command::Inspect { deployment } => {
            let d = load_deployment(&deployment)?;
            let g = interference_graph(&d);
            let c = Coverage::build(&d);
            let mean_deg = if d.n_readers() == 0 {
                0.0
            } else {
                2.0 * g.m() as f64 / d.n_readers() as f64
            };
            let (_, components) = rfid_graph::connected_components(&g);
            let growth = rfid_graph::growth_function(&g, 3);
            Ok(format!(
                "readers:            {}\n\
                 tags:               {}\n\
                 region:             {:.0}×{:.0}\n\
                 interference edges: {} (mean degree {:.2}, {} components)\n\
                 clustering coeff:   {:.3}\n\
                 growth f(0..3):     {:?} (growth-bounded ⇒ small, ≈(r+1)²)\n\
                 coverable tags:     {} ({} unreachable)\n",
                d.n_readers(),
                d.n_tags(),
                d.region().width(),
                d.region().height(),
                g.m(),
                mean_deg,
                components,
                rfid_graph::clustering_coefficient(&g),
                growth,
                c.coverable_count(),
                d.n_tags() - c.coverable_count(),
            ))
        }
        Command::Schedule {
            deployment,
            algorithm,
            seed,
            mcs,
            out: save,
            metrics_out,
            trace,
        } => {
            let d = load_deployment(&deployment)?;
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let registry = SchedulerRegistry::global();
            let mut scheduler = registry.instantiate(algorithm, seed);
            let observing = trace || metrics_out.is_some();
            let recorder = observing.then(Recorder::new);
            let sub = recorder.as_ref().map(|r| r as &dyn rfid_obs::Subscriber);
            if mcs {
                let mut options = McsOptions::new().slot_metrics(observing);
                if let Some(s) = sub {
                    options = options.subscriber(s);
                }
                let run = covering_schedule_with(&d, &c, &g, scheduler.as_mut(), &options)
                    .map_err(|e| CliError::Failed(format!("covering schedule failed: {e}")))?;
                let schedule = run.schedule;
                if let Some(path) = &save {
                    let json = serde_json::to_string(&schedule)
                        .map_err(|e| CliError::Data(e.to_string()))?;
                    std::fs::write(path, json).map_err(|e| CliError::io(path, "write", e))?;
                }
                if let Some(path) = &metrics_out {
                    let body = if path.ends_with(".csv") {
                        rfid_obs::slot_metrics_to_csv(&run.slot_metrics)
                    } else {
                        let rec = recorder.as_ref().expect("recorder exists when observing");
                        format!(
                            "{{\"snapshot\":{},\"slots\":{}}}",
                            rec.snapshot().to_json(),
                            rfid_obs::slot_metrics_to_json(&run.slot_metrics)
                        )
                    };
                    std::fs::write(path, body).map_err(|e| CliError::io(path, "write", e))?;
                }
                let mut out = format!(
                    "{}: {} slots, {} tags served, {} unreachable\n",
                    algorithm.label(),
                    schedule.size(),
                    schedule.tags_served(),
                    schedule.uncoverable.len()
                );
                for (i, slot) in schedule.slots.iter().enumerate() {
                    out.push_str(&format!(
                        "  slot {:>3}: {:>2} readers, {:>4} tags{}\n",
                        i,
                        slot.active.len(),
                        slot.served.len(),
                        if slot.fallback { "  [fallback]" } else { "" }
                    ));
                }
                if trace {
                    let rec = recorder.as_ref().expect("recorder exists when tracing");
                    out.push_str("\nmetrics snapshot:\n");
                    out.push_str(&rec.snapshot().to_json());
                    out.push('\n');
                }
                Ok(out)
            } else {
                let unread = TagSet::all_unread(d.n_tags());
                let mut input = OneShotInput::new(&d, &c, &g, &unread);
                input.subscriber = sub;
                let set = scheduler.schedule(&input);
                let mut out = format!(
                    "{}: {} readers active, w(X) = {}\nactive: {:?}\n",
                    algorithm.label(),
                    set.len(),
                    input.weight_of(&set),
                    set
                );
                if let Some(path) = &metrics_out {
                    let rec = recorder.as_ref().expect("recorder exists when observing");
                    std::fs::write(path, rec.snapshot().to_json())
                        .map_err(|e| CliError::io(path, "write", e))?;
                }
                if trace {
                    let rec = recorder.as_ref().expect("recorder exists when tracing");
                    out.push_str("\nmetrics snapshot:\n");
                    out.push_str(&rec.snapshot().to_json());
                    out.push('\n');
                }
                Ok(out)
            }
        }
        Command::Stats { deployment } => {
            let d = load_deployment(&deployment)?;
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let stats = rfid_model::deployment_stats(&d, &c, &g);
            let mut out = String::new();
            out.push_str(&format!(
                "mean tag coverage:      {:.2} readers/tag\n",
                stats.mean_coverage
            ));
            out.push_str(&format!(
                "overlap fraction:       {:.3} (tags at RRc risk)\n",
                stats.overlap_fraction
            ));
            out.push_str(&format!(
                "mean interference deg:  {:.2}\n",
                stats.mean_degree
            ));
            out.push_str(&format!(
                "interrogation density:  {:.2}× region area\n",
                stats.interrogation_density
            ));
            out.push_str("coverage histogram (tags covered by k readers):\n");
            for (k, &count) in stats.coverage_histogram.iter().enumerate() {
                if count > 0 {
                    out.push_str(&format!("  k={k:>2}: {count}\n"));
                }
            }
            out.push_str("interference degree histogram:\n");
            for (k, &count) in stats.degree_histogram.iter().enumerate() {
                if count > 0 {
                    out.push_str(&format!("  d={k:>2}: {count}\n"));
                }
            }
            Ok(out)
        }
        Command::Verify {
            deployment,
            schedule,
        } => {
            let d = load_deployment(&deployment)?;
            let body = std::fs::read_to_string(&schedule)
                .map_err(|e| CliError::io(&schedule, "read", e))?;
            let sched: rfid_core::CoveringSchedule = serde_json::from_str(&body)
                .map_err(|e| CliError::Data(format!("parse {schedule}: {e}")))?;
            match rfid_core::verify_covering_schedule(&d, &sched) {
                Ok(()) => Ok(format!(
                    "OK: {} slots, {} tags served, {} uncoverable — schedule is sound\n",
                    sched.size(),
                    sched.tags_served(),
                    sched.uncoverable.len()
                )),
                Err(v) => Err(CliError::Failed(format!("schedule INVALID: {v:?}"))),
            }
        }
        Command::Sweep {
            axis,
            values,
            fixed,
            trials,
            mcs,
            readers,
            tags,
        } => {
            let config = SweepConfig {
                scenario: Scenario {
                    kind: ScenarioKind::UniformRandom,
                    n_readers: readers,
                    n_tags: tags,
                    region_side: 100.0,
                    radius_model: RadiusModel::paper_default(),
                },
                axis,
                values,
                fixed_lambda: fixed,
                algorithms: AlgorithmKind::paper_lineup().to_vec(),
                trials,
                base_seed: 42,
                measure_mcs: mcs,
                measure_oneshot: !mcs,
                threads: None,
            };
            let records = run_sweep(&config);
            let x_of = move |t: &rfid_sim::TrialRecord| match axis {
                SweepAxis::Interference => t.lambda_interference,
                SweepAxis::Interrogation => t.lambda_interrogation,
            };
            let metric = move |t: &rfid_sim::TrialRecord| {
                if mcs {
                    t.mcs_size.map(|v| v as f64)
                } else {
                    t.oneshot_weight.map(|v| v as f64)
                }
            };
            let series: Vec<(&str, Vec<rfid_sim::SeriesPoint>)> = AlgorithmKind::paper_lineup()
                .iter()
                .map(|k| {
                    (
                        k.label(),
                        aggregate_series(&records, k.label(), x_of, metric),
                    )
                })
                .collect();
            let title = if mcs {
                "covering-schedule size"
            } else {
                "one-shot well-covered tags"
            };
            let x_label = match axis {
                SweepAxis::Interference => "λ_R",
                SweepAxis::Interrogation => "λ_r",
            };
            Ok(rfid_sim::table::markdown_figure(title, x_label, &series))
        }
        Command::Trace { deployment } => {
            let d = load_deployment(&deployment)?;
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let mut s = rfid_core::DistributedScheduler::default();
            let set = s.schedule(&input);
            let mut out = format!(
                "Algorithm 3 on {} readers: {} activated, w(X) = {}\n\n",
                d.n_readers(),
                set.len(),
                input.weight_of(&set)
            );
            for (round, event) in s.last_trace.unwrap_or_default() {
                use rfid_core::distributed::TraceEvent::*;
                let line = match event {
                    HeadElected { node, members, removed } => format!(
                        "round {round:>3}: reader {node:>3} elected head — Γ has {members} members, retires {removed} readers"
                    ),
                    ColoredRed { node, head } => {
                        format!("round {round:>3}: reader {node:>3} → RED (activated by head {head})")
                    }
                    ColoredBlack { node, head } => {
                        format!("round {round:>3}: reader {node:>3} → BLACK (suppressed by head {head})")
                    }
                    Retransmit { node, to, attempt } => {
                        format!("round {round:>3}: reader {node:>3} retransmits to {to} (attempt {attempt})")
                    }
                    TimeoutSuspect { node, suspect } => {
                        format!("round {round:>3}: reader {node:>3} suspects {suspect} crashed (watchdog timeout)")
                    }
                    ReElected { node, deposed } => {
                        format!("round {round:>3}: reader {node:>3} elected head in place of suspected {deposed}")
                    }
                };
                out.push_str(&line);
                out.push('\n');
            }
            Ok(out)
        }
        Command::Render {
            deployment,
            algorithm,
            seed,
            out,
        } => {
            let d = load_deployment(&deployment)?;
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let set = SchedulerRegistry::global()
                .instantiate(algorithm, seed)
                .schedule(&input);
            let served = rfid_model::WeightEvaluator::new(&c).well_covered(&set, &unread);
            let svg =
                rfid_sim::render_svg(&d, &c, &set, &served, &rfid_sim::RenderOptions::default());
            std::fs::write(&out, svg).map_err(|e| CliError::io(&out, "write", e))?;
            Ok(format!(
                "rendered {} ({} active readers, {} tags served) to {out}\n",
                algorithm.label(),
                set.len(),
                served.len()
            ))
        }
        Command::Serve {
            addr,
            workers,
            cache_cap,
            queue_cap,
            cache_ttl_secs,
            data_dir,
            snapshot_every,
            peers,
        } => {
            let config = ServeConfig {
                workers,
                queue_cap,
                cache_cap,
                cache_ttl: cache_ttl_secs.map(Duration::from_secs),
                data_dir: data_dir.clone().map(Into::into),
                snapshot_every,
                peers: peers.clone(),
            };
            let server = Server::start(&addr, config)
                .map_err(|e| CliError::Remote(format!("bind {addr}: {e}")))?;
            let recovered = server.service().stats().recovered_entries;
            // Announce readiness before blocking so wrappers (CI smoke)
            // know the port is live.
            println!(
                "serving on {} ({} workers, queue {}, cache {}{}{}{})",
                server.addr(),
                workers,
                queue_cap,
                cache_cap,
                match &data_dir {
                    Some(dir) => format!(", data dir {dir}, recovered {recovered}"),
                    None => String::new(),
                },
                if peers.is_empty() {
                    String::new()
                } else {
                    format!(", {} peers", peers.len())
                },
                if data_dir.is_some() && recovered > 0 {
                    ", warm start"
                } else {
                    ""
                },
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.run_until_shutdown();
            Ok("server stopped\n".to_string())
        }
        Command::Route { addr, shards } => {
            let config = RouterConfig {
                shards: shards.clone(),
            };
            let router = Router::start(&addr, config)
                .map_err(|e| CliError::Remote(format!("bind {addr}: {e}")))?;
            // Announce readiness before blocking, like `serve`.
            println!(
                "routing on {} across {} shards",
                router.addr(),
                shards.len()
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            router.run_until_shutdown();
            Ok("router stopped\n".to_string())
        }
        Command::Request {
            addr,
            scenario,
            algo,
            algo_seed,
            gen_seed,
            deadline_ms,
            resilient,
            payload_out,
            stats,
            shutdown,
            failover,
            delta,
            base,
            key,
        } => {
            if stats {
                let mut client = TcpClient::connect(&addr)
                    .map_err(|e| CliError::Remote(format!("connect {addr}: {e}")))?;
                let (s, metrics) = client.stats()?;
                return Ok(format!(
                    "requests:          {}\n\
                     cache hits:        {}\n\
                     cache misses:      {}\n\
                     coalesced:         {}\n\
                     cache evictions:   {}\n\
                     cache entries:     {}\n\
                     recovered entries: {}\n\
                     journal appends:   {} ({} errors)\n\
                     snapshots:         {}\n\
                     replicated out:    {} ({} dropped)\n\
                     replicated in:     {}\n\
                     deduped retries:   {}\n\
                     rejected (full):   {}\n\
                     rejected (stop):   {}\n\
                     deadline expired:  {}\n\
                     solved:            {}\n\
                     errors:            {}\n\
                     queue depth:       {}\n\
                     workers:           {}\n\
                     metrics: {metrics}\n",
                    s.requests,
                    s.cache_hits,
                    s.cache_misses,
                    s.coalesced,
                    s.cache_evictions,
                    s.cache_entries,
                    s.recovered_entries,
                    s.journal_appends,
                    s.journal_append_errors,
                    s.snapshots_written,
                    s.replicated_out,
                    s.replication_dropped,
                    s.replicated_in,
                    s.deduped,
                    s.rejected_full,
                    s.rejected_shutdown,
                    s.deadline_expired,
                    s.solved,
                    s.errors,
                    s.queue_depth,
                    s.workers,
                ));
            }
            if shutdown {
                let mut client = TcpClient::connect(&addr)
                    .map_err(|e| CliError::Remote(format!("connect {addr}: {e}")))?;
                client.shutdown_server()?;
                return Ok("server acknowledged shutdown\n".to_string());
            }
            // A single --addr is plain TCP; --failover extras make it a
            // client that retries on the next peer.
            let mut client = if failover.is_empty() {
                TcpClient::connect(&addr)
                    .map_err(|e| CliError::Remote(format!("connect {addr}: {e}")))?
            } else {
                let mut peers = vec![addr.clone()];
                peers.extend(failover.iter().cloned());
                TcpClient::failover(peers, FailoverPolicy::default())
            };
            // A key request never falls back to the full frame: the
            // caller asked for the key path, so a key-miss surfaces as
            // a structured remote error (exit 5) instead of re-solving.
            if let Some(key) = &key {
                let reply = client.schedule_by_key(key, &[])?;
                if let Some(out) = &payload_out {
                    std::fs::write(out, reply.payload.as_bytes())
                        .map_err(|e| CliError::io(out, "write", e))?;
                }
                let outcome = reply.outcome().map_err(CliError::Data)?;
                return Ok(format!(
                    "key: {}\ncached: {}\n{}: {} slots, {} tags served, {} unreachable, complete: {}\n",
                    reply.key,
                    reply.cached,
                    outcome.algorithm,
                    outcome.slots,
                    outcome.tags_served,
                    outcome.uncoverable,
                    outcome.complete
                ));
            }
            let reply: ScheduleReply = if let Some(ops_path) = &delta {
                let ops = load_ops(ops_path)?;
                let base = base.expect("parse() guarantees --base here");
                client.schedule_delta(&base, &ops, deadline_ms, None)?
            } else {
                let path = scenario.expect("parse() guarantees --scenario here");
                let job = load_job(&path, &algo, algo_seed, gen_seed, resilient)?;
                client.schedule(&job, deadline_ms)?
            };
            if let Some(out) = &payload_out {
                std::fs::write(out, reply.payload.as_bytes())
                    .map_err(|e| CliError::io(out, "write", e))?;
            }
            let outcome = reply.outcome().map_err(CliError::Data)?;
            Ok(format!(
                "key: {}\ncached: {}\n{}: {} slots, {} tags served, {} unreachable, complete: {}\n",
                reply.key,
                reply.cached,
                outcome.algorithm,
                outcome.slots,
                outcome.tags_served,
                outcome.uncoverable,
                outcome.complete
            ))
        }
        Command::Patch {
            scenario,
            ops,
            out,
            algo,
            algo_seed,
            gen_seed,
            resilient,
        } => {
            let job = load_job(&scenario, &algo, algo_seed, gen_seed, resilient)?;
            // Same pipeline as the daemon's delta path: canonicalise the
            // base job (aliases resolved, tags sorted — the form delta op
            // indices refer to), materialise its deployment, patch it.
            let canonical = CanonicalJob::new(&job, &SchedulerRegistry::global())
                .map_err(|e| CliError::Data(format!("canonicalize {scenario}: {e}")))?;
            let ops_list = load_ops(&ops)?;
            let patched = apply_ops(&canonical.spec.deployment(), &ops_list)
                .map_err(|e| CliError::Data(format!("apply {ops}: {e}")))?;
            let body = serde_json::to_string_pretty(&patched.deployment)
                .map_err(|e| CliError::Data(format!("encode patched deployment: {e}")))?;
            std::fs::write(&out, &body).map_err(|e| CliError::io(&out, "write", e))?;
            Ok(format!(
                "base key:    {}\nderived key: {}\npatched: {} readers, {} tags -> {}\n",
                canonical.key_hex(),
                key_hex(derived_key(canonical.key, &ops_list)),
                patched.deployment.n_readers(),
                patched.deployment.n_tags(),
                out
            ))
        }
    }
}

/// Loads a `ScenarioDelta` ops file: a JSON array of delta operations.
fn load_ops(path: &str) -> Result<Vec<ScenarioDelta>, CliError> {
    let body = std::fs::read_to_string(path).map_err(|e| CliError::io(path, "read", e))?;
    serde_json::from_str(&body).map_err(|e| CliError::Data(format!("parse {path}: {e}")))
}

/// Builds a [`JobSpec`] from a file holding either a [`Scenario`] (the
/// cache-friendly generated workload) or a full [`Deployment`] (the
/// explicit workload, e.g. `generate --out` output).
fn load_job(
    path: &str,
    algo: &str,
    algo_seed: u64,
    gen_seed: u64,
    resilient: bool,
) -> Result<JobSpec, CliError> {
    let body = std::fs::read_to_string(path).map_err(|e| CliError::io(path, "read", e))?;
    let workload = match serde_json::from_str::<Scenario>(&body) {
        Ok(scenario) => Workload::Generated {
            scenario,
            seed: gen_seed,
        },
        Err(scenario_err) => match serde_json::from_str::<Deployment>(&body) {
            Ok(deployment) => Workload::Explicit { deployment },
            Err(deployment_err) => {
                return Err(CliError::Data(format!(
                    "parse {path}: neither a Scenario ({scenario_err}) nor a Deployment ({deployment_err})"
                )))
            }
        },
    };
    let mut job = JobSpec::new(workload);
    job.algorithm = algo.to_string();
    job.algo_seed = algo_seed;
    job.resilient = resilient;
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&argv("generate --out /tmp/x.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                readers: 50,
                tags: 1200,
                seed: 42,
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
                region: 100.0,
                out: "/tmp/x.json".into()
            }
        );
    }

    #[test]
    fn parses_schedule_modes_and_algorithms() {
        let cmd = parse(&argv(
            "schedule --deployment d.json --algorithm alg3 --mode mcs",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Schedule {
                deployment: "d.json".into(),
                algorithm: AlgorithmKind::Distributed,
                seed: 0,
                mcs: true,
                out: None,
                metrics_out: None,
                trace: false,
            }
        );
        assert!(parse(&argv("schedule --deployment d.json --mode nope")).is_err());
        assert!(parse(&argv("schedule --deployment d.json --algorithm nope")).is_err());
    }

    #[test]
    fn parses_trace_and_metrics_flags() {
        let cmd = parse(&argv(
            "schedule --deployment d.json --mode mcs --trace --metrics-out m.json",
        ))
        .unwrap();
        match cmd {
            Command::Schedule {
                trace, metrics_out, ..
            } => {
                assert!(trace);
                assert_eq!(metrics_out.as_deref(), Some("m.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn registry_errors_list_known_algorithms() {
        let err = parse_algorithm("nope").unwrap_err();
        assert!(err.to_string().contains("alg2-central"), "{err}");
        assert_eq!(parse_algorithm("ALG1").unwrap(), AlgorithmKind::Ptas);
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("inspect")).is_err());
        assert!(parse(&argv("render --deployment d.json")).is_err());
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = parse(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_generate_inspect_schedule_render() {
        let dir = std::env::temp_dir().join("rfid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let depl = dir.join("d.json").to_string_lossy().into_owned();
        let svg = dir.join("d.svg").to_string_lossy().into_owned();

        let out = run(parse(&argv(&format!(
            "generate --readers 12 --tags 80 --seed 7 --out {depl}"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("12 readers"));

        let out = run(parse(&argv(&format!("inspect --deployment {depl}"))).unwrap()).unwrap();
        assert!(out.contains("readers:            12"));
        assert!(out.contains("tags:               80"));

        let out = run(parse(&argv(&format!(
            "schedule --deployment {depl} --algorithm ghc --mode mcs"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("slots"));

        let out = run(parse(&argv(&format!(
            "render --deployment {depl} --algorithm alg2 --out {svg}"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("rendered"));
        let body = std::fs::read_to_string(&svg).unwrap();
        assert!(body.starts_with("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedule_emits_metrics_files() {
        let dir = std::env::temp_dir().join("rfid_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let depl = dir.join("d.json").to_string_lossy().into_owned();
        let mjson = dir.join("m.json").to_string_lossy().into_owned();
        let mcsv = dir.join("m.csv").to_string_lossy().into_owned();
        run(parse(&argv(&format!(
            "generate --readers 12 --tags 80 --seed 7 --out {depl}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "schedule --deployment {depl} --algorithm ghc --mode mcs --trace --metrics-out {mjson}"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("metrics snapshot:"), "{out}");
        let body = std::fs::read_to_string(&mjson).unwrap();
        assert!(body.contains("\"mcs.slots\""), "{body}");
        assert!(body.contains("\"slots\":["), "{body}");
        run(parse(&argv(&format!(
            "schedule --deployment {depl} --algorithm ghc --mode mcs --metrics-out {mcsv}"
        )))
        .unwrap())
        .unwrap();
        let csv = std::fs::read_to_string(&mcsv).unwrap();
        assert!(
            csv.starts_with("slot,active_readers,tags_served,fallback,wall_nanos"),
            "{csv}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_errors_are_readable() {
        let err = run(Command::Inspect {
            deployment: "/nonexistent/x.json".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("read /nonexistent/x.json"));
    }
}

#[cfg(test)]
mod sweep_trace_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_sweep_with_values() {
        let cmd = parse(&argv(
            "sweep --axis interference --values 8,10 --fixed 6 --trials 2 --metric mcs --readers 10 --tags 50",
        ))
        .unwrap();
        match cmd {
            Command::Sweep {
                axis,
                values,
                fixed,
                trials,
                mcs,
                readers,
                tags,
            } => {
                assert_eq!(axis, SweepAxis::Interference);
                assert_eq!(values, vec![8.0, 10.0]);
                assert_eq!(fixed, 6.0);
                assert_eq!(trials, 2);
                assert!(mcs);
                assert_eq!((readers, tags), (10, 50));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        assert!(parse(&argv("sweep --axis sideways")).is_err());
        assert!(parse(&argv("sweep --metric nope")).is_err());
        assert!(parse(&argv("sweep --values 3,x")).is_err());
    }

    #[test]
    fn sweep_runs_end_to_end() {
        let out = run(parse(&argv(
            "sweep --values 5,7 --trials 1 --readers 10 --tags 60",
        ))
        .unwrap())
        .unwrap();
        assert!(out.contains("λ_r"));
        assert!(out.contains("alg1-ptas"));
        assert!(out.contains("| 5.0 |"));
    }

    #[test]
    fn trace_runs_end_to_end() {
        let dir = std::env::temp_dir().join("rfid_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let depl = dir.join("d.json").to_string_lossy().into_owned();
        run(parse(&argv(&format!(
            "generate --readers 15 --tags 100 --seed 3 --out {depl}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!("trace --deployment {depl}"))).unwrap()).unwrap();
        assert!(out.contains("Algorithm 3"));
        assert!(out.contains("elected head"));
        assert!(out.contains("RED"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod stats_verify_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn stats_verify_roundtrip() {
        let dir = std::env::temp_dir().join("rfid_cli_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let depl = dir.join("d.json").to_string_lossy().into_owned();
        let sched = dir.join("s.json").to_string_lossy().into_owned();

        run(parse(&argv(&format!(
            "generate --readers 12 --tags 80 --seed 4 --out {depl}"
        )))
        .unwrap())
        .unwrap();

        let out = run(parse(&argv(&format!("stats --deployment {depl}"))).unwrap()).unwrap();
        assert!(out.contains("mean tag coverage"));
        assert!(out.contains("coverage histogram"));

        run(parse(&argv(&format!(
            "schedule --deployment {depl} --algorithm ghc --mode mcs --out {sched}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "verify --deployment {depl} --schedule {sched}"
        )))
        .unwrap())
        .unwrap();
        assert!(out.starts_with("OK:"), "{out}");

        // Tamper with the schedule: verification must fail loudly.
        let body = std::fs::read_to_string(&sched).unwrap();
        let mut parsed: rfid_core::CoveringSchedule = serde_json::from_str(&body).unwrap();
        if let Some(slot) = parsed.slots.first_mut() {
            slot.served.clear();
        }
        std::fs::write(&sched, serde_json::to_string(&parsed).unwrap()).unwrap();
        let err = run(parse(&argv(&format!(
            "verify --deployment {depl} --schedule {sched}"
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.to_string().contains("INVALID"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_flags_error() {
        assert!(parse(&argv("stats")).is_err());
        assert!(parse(&argv("verify --deployment d.json")).is_err());
    }
}

#[cfg(test)]
mod serve_request_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let defaults = ServeConfig::default();
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                addr,
                workers,
                cache_cap,
                queue_cap,
                cache_ttl_secs,
                data_dir,
                snapshot_every,
                peers,
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(workers, defaults.workers);
                assert_eq!(cache_cap, defaults.cache_cap);
                assert_eq!(queue_cap, defaults.queue_cap);
                assert_eq!(cache_ttl_secs, None);
                assert_eq!(data_dir, None);
                assert_eq!(snapshot_every, defaults.snapshot_every);
                assert!(peers.is_empty());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 2 --cache-cap 32 --queue-cap 8 --cache-ttl-secs 60 \
             --data-dir /tmp/rfid --snapshot-every 16 --peers 127.0.0.1:7402,127.0.0.1:7403",
        ))
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                cache_cap,
                queue_cap,
                cache_ttl_secs,
                data_dir,
                snapshot_every,
                peers,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!((workers, cache_cap, queue_cap), (2, 32, 8));
                assert_eq!(cache_ttl_secs, Some(60));
                assert_eq!(data_dir.as_deref(), Some("/tmp/rfid"));
                assert_eq!(snapshot_every, 16);
                assert_eq!(peers, vec!["127.0.0.1:7402", "127.0.0.1:7403"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_route_and_requires_shards() {
        match parse(&argv("route --shards 127.0.0.1:7401,127.0.0.1:7402")).unwrap() {
            Command::Route { addr, shards } => {
                assert_eq!(addr, DEFAULT_ROUTER_ADDR);
                assert_eq!(shards, vec!["127.0.0.1:7401", "127.0.0.1:7402"]);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&argv("route --addr 127.0.0.1:0")).unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }

    #[test]
    fn rejects_flags_the_subcommand_does_not_take() {
        for (line, flag) in [
            (
                "generate --readers 5 --tagz 7 --seed 1 --out f.json",
                "--tagz",
            ),
            ("route --shards A --conns-per-shard 2", "--conns-per-shard"),
            ("inspect --deployment d.json --algo ghc", "--algo"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}");
            assert!(err.to_string().contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn documented_invocations_parse() {
        // Every flag set the README, EXPERIMENTS.md and CI's serve smoke use.
        for line in [
            "generate --readers 50 --tags 1200 --seed 42 --out depl.json",
            "generate --out d.json --lambda-interference 12 --lambda-interrogation 5 --region 80",
            "schedule --deployment d.json --algorithm alg1 --mode mcs --out s.json",
            "schedule --deployment d.json --metrics-out m.csv --trace --seed 3",
            "render --deployment d.json --out slot.svg --algorithm ghc --seed 1",
            "sweep --axis interrogation --values 3,5,7,9 --trials 5",
            "sweep --values 4,6 --trials 3 --readers 30 --tags 300 --metric mcs --fixed 14",
            "verify --deployment d.json --schedule s.json",
            "serve --addr 127.0.0.1:7401 --workers 2 --cache-cap 64 --queue-cap 16",
            "serve --addr 127.0.0.1:7403 --workers 2 --data-dir serve-data --snapshot-every 8",
            "serve --addr 127.0.0.1:7401 --data-dir a --peers 127.0.0.1:7402 --cache-ttl-secs 60",
            "route --addr 127.0.0.1:7410 --shards 127.0.0.1:7411,127.0.0.1:7412",
            "request --addr 127.0.0.1:7401 --scenario d.json --algo ghc --payload-out p.json",
            "request --addr 127.0.0.1:7401 --failover 127.0.0.1:7402 --scenario d.json \
             --seed 1 --gen-seed 2 --deadline-ms 500 --resilient",
            "request --addr 127.0.0.1:7415 --delta ops.json --base 5ad0 --payload-out p.json",
            "request --addr 127.0.0.1:7410 --key 00000000000000ee --payload-out p.json",
            "request --addr 127.0.0.1:7401 --stats",
            "request --addr 127.0.0.1:7401 --shutdown",
            "patch --scenario d.json --ops ops.json --out p.json --algo ghc --seed 1 \
             --gen-seed 2 --resilient",
        ] {
            assert!(parse(&argv(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn parses_request_variants() {
        match parse(&argv(
            "request --scenario s.json --algo ghc --seed 9 --gen-seed 3 --deadline-ms 500 --resilient --payload-out p.json",
        ))
        .unwrap()
        {
            Command::Request {
                addr,
                scenario,
                algo,
                algo_seed,
                gen_seed,
                deadline_ms,
                resilient,
                payload_out,
                stats,
                shutdown,
                failover,
                delta,
                base,
                key,
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(scenario.as_deref(), Some("s.json"));
                assert_eq!(algo, "ghc");
                assert_eq!((algo_seed, gen_seed), (9, 3));
                assert_eq!(deadline_ms, Some(500));
                assert!(resilient);
                assert_eq!(payload_out.as_deref(), Some("p.json"));
                assert!(!stats && !shutdown);
                assert!(failover.is_empty());
                assert!(delta.is_none() && base.is_none() && key.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&argv(
            "request --scenario s.json --failover 127.0.0.1:7402,127.0.0.1:7403",
        ))
        .unwrap()
        {
            Command::Request { failover, .. } => {
                assert_eq!(failover, vec!["127.0.0.1:7402", "127.0.0.1:7403"])
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse(&argv("request --stats")).unwrap(),
            Command::Request { stats: true, .. }
        ));
        assert!(matches!(
            parse(&argv("request --shutdown")).unwrap(),
            Command::Request { shutdown: true, .. }
        ));
    }

    #[test]
    fn parses_key_request_variants() {
        match parse(&argv("request --key 00000000deadbeef")).unwrap() {
            Command::Request { key, scenario, .. } => {
                assert_eq!(key.as_deref(), Some("00000000deadbeef"));
                assert!(scenario.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --key carries nothing else: combining it with the full or
        // delta shapes is a usage error, not a confusing remote one.
        for bad in [
            "request --key ab --scenario s.json",
            "request --key ab --delta ops.json --base cd",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("--key"), "{err}");
        }
    }

    #[test]
    fn request_without_action_is_usage_error() {
        let err = parse(&argv("request")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--scenario"), "{err}");
    }

    #[test]
    fn exit_codes_map_error_kinds() {
        assert_eq!(CliError::Failed("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            CliError::io("p", "read", std::io::Error::other("boom")).exit_code(),
            3
        );
        assert_eq!(CliError::Data("x".into()).exit_code(), 4);
        assert_eq!(CliError::Remote("x".into()).exit_code(), 5);
    }

    #[test]
    fn unwritable_metrics_out_is_structured_io_error() {
        let dir = std::env::temp_dir().join("rfid_cli_unwritable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let depl = dir.join("d.json").to_string_lossy().into_owned();
        run(parse(&argv(&format!(
            "generate --readers 10 --tags 40 --seed 1 --out {depl}"
        )))
        .unwrap())
        .unwrap();
        let err = run(parse(&argv(&format!(
            "schedule --deployment {depl} --algorithm ghc --mode mcs --metrics-out /nonexistent/dir/m.json"
        )))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(
            err.to_string().contains("write /nonexistent/dir/m.json"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_against_dead_server_is_remote_error() {
        // Nothing listens on this port (bound then dropped), so the
        // request must surface a Remote error, not panic or hang.
        let port = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().port()
        };
        let err = run(parse(&argv(&format!("request --addr 127.0.0.1:{port} --stats"))).unwrap())
            .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
    }

    #[test]
    fn serve_and_request_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join("rfid_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let scen = dir.join("scenario.json");
        let scenario = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 10,
            n_tags: 60,
            region_side: 100.0,
            radius_model: RadiusModel::paper_default(),
        };
        std::fs::write(&scen, serde_json::to_string(&scenario).unwrap()).unwrap();
        let scen = scen.to_string_lossy().into_owned();

        let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();

        let out = run(parse(&argv(&format!(
            "request --addr {addr} --scenario {scen} --algo ghc"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("cached: false"), "{out}");
        let out2 = run(parse(&argv(&format!(
            "request --addr {addr} --scenario {scen} --algo ghc"
        )))
        .unwrap())
        .unwrap();
        assert!(out2.contains("cached: true"), "{out2}");

        // Address the cached schedule by content key alone (protocol v4).
        let key_hex = out2
            .lines()
            .find_map(|l| l.strip_prefix("key: "))
            .expect("reply prints the content key");
        let by_key =
            run(parse(&argv(&format!("request --addr {addr} --key {key_hex}"))).unwrap()).unwrap();
        assert!(by_key.contains("cached: true"), "{by_key}");
        assert!(by_key.contains(&format!("key: {key_hex}")), "{by_key}");
        // An unknown key is a structured remote error (exit 5, key-miss).
        let err = run(parse(&argv(&format!(
            "request --addr {addr} --key 00000000000000ee"
        )))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("key-miss"), "{err}");

        let stats = run(parse(&argv(&format!("request --addr {addr} --stats"))).unwrap()).unwrap();
        assert!(stats.contains("cache hits:        2"), "{stats}");

        let bye = run(parse(&argv(&format!("request --addr {addr} --shutdown"))).unwrap()).unwrap();
        assert!(bye.contains("shutdown"), "{bye}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_delta_and_patch_variants() {
        match parse(&argv(
            "request --delta ops.json --base 00000000deadbeef --deadline-ms 250",
        ))
        .unwrap()
        {
            Command::Request {
                delta,
                base,
                scenario,
                deadline_ms,
                ..
            } => {
                assert_eq!(delta.as_deref(), Some("ops.json"));
                assert_eq!(base.as_deref(), Some("00000000deadbeef"));
                assert!(scenario.is_none());
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --delta without --base, or combined with --scenario, is a
        // usage error, not a confusing remote failure later.
        let err = parse(&argv("request --delta ops.json")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--base"), "{err}");
        let err = parse(&argv(
            "request --delta ops.json --base ab --scenario s.json",
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        match parse(&argv(
            "patch --scenario s.json --ops ops.json --out p.json --algo ghc --seed 4",
        ))
        .unwrap()
        {
            Command::Patch {
                scenario,
                ops,
                out,
                algo,
                algo_seed,
                gen_seed,
                resilient,
            } => {
                assert_eq!(scenario, "s.json");
                assert_eq!(ops, "ops.json");
                assert_eq!(out, "p.json");
                assert_eq!(algo, "ghc");
                assert_eq!((algo_seed, gen_seed), (4, 0));
                assert!(!resilient);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(&argv("patch --scenario s.json --ops o.json")).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
    }

    #[test]
    fn delta_request_round_trip_matches_patched_cold_solve() {
        let dir = std::env::temp_dir().join("rfid_cli_delta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let scen = dir.join("scenario.json");
        let scenario = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 10,
            n_tags: 60,
            region_side: 100.0,
            radius_model: RadiusModel::paper_default(),
        };
        std::fs::write(&scen, serde_json::to_string(&scenario).unwrap()).unwrap();
        let scen = scen.to_string_lossy().into_owned();
        let ops = dir.join("ops.json");
        std::fs::write(
            &ops,
            serde_json::to_string(&vec![
                ScenarioDelta::AddTag { x: 42.0, y: 17.0 },
                ScenarioDelta::RemoveTag { tag: 3 },
            ])
            .unwrap(),
        )
        .unwrap();
        let ops = ops.to_string_lossy().into_owned();

        let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();

        // Full request establishes the base; its printed key feeds the
        // delta frame.
        let full = run(parse(&argv(&format!(
            "request --addr {addr} --scenario {scen} --algo ghc"
        )))
        .unwrap())
        .unwrap();
        let base = full
            .lines()
            .find_map(|l| l.strip_prefix("key: "))
            .expect("full request prints its key")
            .to_string();

        let delta_payload = dir.join("delta_payload.json");
        let out = run(parse(&argv(&format!(
            "request --addr {addr} --delta {ops} --base {base} --payload-out {}",
            delta_payload.display()
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("cached: false"), "{out}");

        // `mrrfid patch` reproduces the patched deployment locally; a
        // full request for it must return byte-identical payload bytes.
        let patched = dir.join("patched.json");
        let patch_out = run(parse(&argv(&format!(
            "patch --scenario {scen} --ops {ops} --out {} --algo ghc",
            patched.display()
        )))
        .unwrap())
        .unwrap();
        assert!(
            patch_out.contains(&format!("base key:    {base}")),
            "{patch_out}"
        );
        let cold_payload = dir.join("cold_payload.json");
        run(parse(&argv(&format!(
            "request --addr {addr} --scenario {} --algo ghc --payload-out {}",
            patched.display(),
            cold_payload.display()
        )))
        .unwrap())
        .unwrap();
        assert_eq!(
            std::fs::read(&delta_payload).unwrap(),
            std::fs::read(&cold_payload).unwrap(),
            "delta reply must be byte-identical to a cold solve of the patched scenario"
        );

        // An unknown base is the structured base-miss, surfaced as a
        // Remote error telling the client to send the full scenario.
        let err = run(parse(&argv(&format!(
            "request --addr {addr} --delta {ops} --base 1111111111111111"
        )))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("base-miss"), "{err}");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
