//! MCS engine scaling benchmark — the tracked perf trajectory.
//!
//! Runs the full greedy covering schedule end to end at constant reader
//! density (the paper's 50 readers / 100×100 region, 24 tags per reader)
//! for n ∈ {200, 1000, 5000, 20000, 100000} and emits a machine-readable
//! `BENCH_mcs.json` with wall time, per-phase timings, peak RSS and
//! slots/sec per (size, algorithm).
//!
//! The committed `results/BENCH_mcs_seed.json` is the pre-optimisation
//! baseline recorded by this same binary; every later PR regenerates
//! `results/BENCH_mcs.json` and compares against it (see EXPERIMENTS.md).
//!
//! Usage:
//!   mcs_scaling [--quick] [--sizes 200,1000] [--trials N] [--out PATH]
//!               [--metrics-out PATH] [--trace]
//!   mcs_scaling --check PATH            # validate an existing BENCH_mcs.json
//!   mcs_scaling --check PATH --against SEED --min-speedup X
//!                                       # additionally require X× speedup vs
//!                                       # the seed baseline per (n, algorithm)
//!   mcs_scaling --check PATH --max-ms LABEL:N:MS
//!                                       # absolute wall-clock ceiling for one
//!                                       # (algorithm, size) leg's schedule, or
//!                                       # with LABEL `model` for coverage_ms +
//!                                       # graph_ms of every leg at that size
//!                                       # (repeatable)
//!   mcs_scaling --check-metrics PATH [--schema PATH]
//!                                       # validate a metrics JSON against the
//!                                       # checked-in schema
//!
//! `--quick` restricts to n = 200 (the CI perf-smoke configuration).
//! `--metrics-out` routes every covering-schedule run through an
//! `rfid_obs::Recorder` and writes the counter/histogram snapshots plus
//! per-slot records; the schedules themselves are bit-identical with or
//! without the recorder (DESIGN.md §8).
//!
//! Trial `t` runs seed `42 + t`: the times are means over the trials'
//! deployments, and `slots`, `tags_served` and `fallback_slots` are the
//! last trial's (seed `42 + trials − 1`). `--against` therefore refuses to
//! compare reports of different trial counts.
//!
//! Schema v2 (this revision): adds per-phase timings (`generate_ms`,
//! `coverage_ms`, `graph_ms` — the deployment/coverage/interference-graph
//! build phases whose sum with `schedule_wall_ms` approximates
//! `total_wall_ms`) and `peak_rss_kb` (the process peak resident set,
//! `VmHWM`, sampled when the entry finishes — monotone across entries, so
//! the largest legs dominate it; 0 where the platform offers no reading).

use rfid_core::{covering_schedule_with, AlgorithmKind, McsOptions, SchedulerRegistry};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind};
use rfid_obs::{slot_metrics_to_json, Recorder, SlotMetrics};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Paper density: 50 readers in a 100×100 region, 24 tags per reader.
const BASE_READERS: f64 = 50.0;
const BASE_REGION: f64 = 100.0;
const TAGS_PER_READER: usize = 24;
const LAMBDA_INTERFERENCE: f64 = 14.0;
const LAMBDA_INTERROGATION: f64 = 6.0;

/// One (size, algorithm) measurement.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    n_readers: usize,
    n_tags: usize,
    algorithm: String,
    trials: usize,
    /// Covering-schedule size (slots) of the last trial, seed
    /// `42 + trials − 1`; each trial draws its own deployment.
    slots: usize,
    /// Tags served by the last trial's schedule.
    tags_served: usize,
    /// Fallback slots of the last trial's schedule.
    fallback_slots: usize,
    /// Mean wall time of `covering_schedule_with` alone.
    schedule_wall_ms: f64,
    /// Mean wall time including deployment + coverage + graph build.
    total_wall_ms: f64,
    /// Mean wall time of the deployment generation phase.
    generate_ms: f64,
    /// Mean wall time of the `Coverage::build` phase.
    coverage_ms: f64,
    /// Mean wall time of the `interference_graph` phase.
    graph_ms: f64,
    /// Process peak RSS (`VmHWM`, kB) when this entry finished; monotone
    /// across entries within one run, 0 when unavailable.
    peak_rss_kb: u64,
    slots_per_sec: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    bench: String,
    schema_version: u32,
    tags_per_reader: usize,
    lambda_interference: f64,
    lambda_interrogation: f64,
    entries: Vec<Entry>,
}

/// Constant-density scaling: the region side grows with √n so local
/// structure (degree, tags per interrogation disk) matches the paper's
/// evaluation scenario at every size.
fn scenario(n_readers: usize) -> Scenario {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers,
        n_tags: n_readers * TAGS_PER_READER,
        region_side: BASE_REGION * (n_readers as f64 / BASE_READERS).sqrt(),
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: LAMBDA_INTERFERENCE,
            lambda_interrogation: LAMBDA_INTERROGATION,
        },
    }
}

/// Process peak resident set size in kB (`VmHWM` from `/proc/self/status`),
/// or 0 where unavailable. Monotone over the process lifetime.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Observability records from one (size, algorithm) measurement: the last
/// trial's deterministic counter snapshot and its per-slot metrics.
struct RunMetrics {
    snapshot_json: String,
    slots: Vec<SlotMetrics>,
}

fn measure(
    n_readers: usize,
    kind: AlgorithmKind,
    trials: usize,
    observe: bool,
) -> (Entry, Option<RunMetrics>) {
    let mut schedule_ms = 0.0;
    let mut total_ms = 0.0;
    let mut generate_ms = 0.0;
    let mut coverage_ms = 0.0;
    let mut graph_ms = 0.0;
    let mut slots = 0;
    let mut tags_served = 0;
    let mut fallback_slots = 0;
    let mut metrics = None;
    for trial in 0..trials {
        let seed = 42 + trial as u64;
        let total_start = Instant::now();
        let phase = Instant::now();
        let deployment = scenario(n_readers).generate(seed);
        generate_ms += phase.elapsed().as_secs_f64() * 1e3;
        let phase = Instant::now();
        let coverage = Coverage::build(&deployment);
        coverage_ms += phase.elapsed().as_secs_f64() * 1e3;
        let phase = Instant::now();
        let graph = interference_graph(&deployment);
        graph_ms += phase.elapsed().as_secs_f64() * 1e3;
        let mut scheduler = SchedulerRegistry::global().instantiate(kind, seed ^ 0x5eed);
        let recorder = observe.then(Recorder::new);
        let mut options = McsOptions::new().slot_metrics(observe);
        if let Some(rec) = &recorder {
            options = options.subscriber(rec);
        }
        let start = Instant::now();
        let run =
            covering_schedule_with(&deployment, &coverage, &graph, scheduler.as_mut(), &options)
                .expect("strict covering schedule diverged");
        schedule_ms += start.elapsed().as_secs_f64() * 1e3;
        total_ms += total_start.elapsed().as_secs_f64() * 1e3;
        // Each trial has its own seed; the counts are the last trial's.
        let schedule = run.schedule;
        slots = schedule.size();
        tags_served = schedule.tags_served();
        fallback_slots = schedule.fallback_slots();
        if let Some(rec) = &recorder {
            metrics = Some(RunMetrics {
                snapshot_json: rec.snapshot().to_json(),
                slots: run.slot_metrics,
            });
        }
    }
    let schedule_wall_ms = schedule_ms / trials as f64;
    let entry = Entry {
        n_readers,
        n_tags: n_readers * TAGS_PER_READER,
        algorithm: kind.label().to_string(),
        trials,
        slots,
        tags_served,
        fallback_slots,
        schedule_wall_ms,
        total_wall_ms: total_ms / trials as f64,
        generate_ms: generate_ms / trials as f64,
        coverage_ms: coverage_ms / trials as f64,
        graph_ms: graph_ms / trials as f64,
        peak_rss_kb: peak_rss_kb(),
        slots_per_sec: slots as f64 / (schedule_wall_ms / 1e3),
    };
    (entry, metrics)
}

/// Composes the metrics sidecar JSON: one run record per (size, algorithm)
/// with the Recorder snapshot and the per-slot metrics of the last trial.
fn metrics_report(runs: &[(usize, String, RunMetrics)]) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|(n, algorithm, m)| {
            format!(
                "{{\"n_readers\":{},\"algorithm\":{:?},\"snapshot\":{},\"slots\":{}}}",
                n,
                algorithm,
                m.snapshot_json,
                slot_metrics_to_json(&m.slots)
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"mcs_scaling\",\"schema_version\":1,\"runs\":[{}]}}",
        body.join(",")
    )
}

/// Validates a metrics JSON emitted by `--metrics-out` against the
/// checked-in schema (`results/mcs_metrics.schema.json`). The schema lists
/// required keys at each level plus counters every snapshot must carry;
/// missing keys index as `Null` in the vendored `Value`, which is what we
/// test for.
fn check_metrics(path: &PathBuf, schema_path: &PathBuf) -> Result<(), String> {
    use serde_json::Value;
    let is_null = |v: &Value| matches!(v.0, serde::Content::Null);
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p:?}: {e}"));
    let doc: Value =
        serde_json::from_str(&read(path)?).map_err(|e| format!("malformed {path:?}: {e}"))?;
    let schema: Value = serde_json::from_str(&read(schema_path)?)
        .map_err(|e| format!("malformed schema {schema_path:?}: {e}"))?;
    let required = |schema_key: &str| -> Result<Vec<String>, String> {
        match &schema[schema_key].0 {
            serde::Content::Seq(items) => items
                .iter()
                .map(|c| match c {
                    serde::Content::Str(s) => Ok(s.clone()),
                    other => Err(format!("schema {schema_key}: non-string entry {other:?}")),
                })
                .collect(),
            _ => Err(format!("schema is missing the {schema_key:?} list")),
        }
    };
    for key in required("required")? {
        if is_null(&doc[key.as_str()]) {
            return Err(format!("metrics JSON is missing top-level key {key:?}"));
        }
    }
    if doc["bench"].as_str() != Some("mcs_scaling") {
        return Err("metrics JSON has the wrong bench name".into());
    }
    if doc["schema_version"].as_f64() != Some(1.0) {
        return Err("metrics JSON has an unknown schema_version".into());
    }
    let n_runs = doc["runs"]
        .as_array_len()
        .ok_or("metrics JSON `runs` is not an array")?;
    if n_runs == 0 {
        return Err("metrics JSON has no runs".into());
    }
    let run_required = required("run_required")?;
    let snapshot_required = required("snapshot_required")?;
    let counters_required = required("counters_required")?;
    let slot_required = required("slot_required")?;
    for i in 0..n_runs {
        let run = &doc["runs"][i];
        for key in &run_required {
            if is_null(&run[key.as_str()]) {
                return Err(format!("run {i} is missing key {key:?}"));
            }
        }
        let snapshot = &run["snapshot"];
        for key in &snapshot_required {
            if is_null(&snapshot[key.as_str()]) {
                return Err(format!("run {i} snapshot is missing key {key:?}"));
            }
        }
        for key in &counters_required {
            if snapshot["counters"][key.as_str()].as_f64().is_none() {
                return Err(format!("run {i} snapshot is missing counter {key:?}"));
            }
        }
        let n_slots = run["slots"]
            .as_array_len()
            .ok_or_else(|| format!("run {i} `slots` is not an array"))?;
        if n_slots == 0 {
            return Err(format!("run {i} carries no per-slot records"));
        }
        for s in 0..n_slots {
            for key in &slot_required {
                // `fallback` is a boolean, the rest are numeric — test
                // presence, which covers both.
                if is_null(&run["slots"][s][key.as_str()]) {
                    return Err(format!("run {i} slot {s} is missing field {key:?}"));
                }
            }
        }
    }
    Ok(())
}

/// One absolute wall-clock ceiling: `(label, n_readers, max ms)`, where
/// the label is an algorithm or [`MODEL_LABEL`].
type MaxMs = (String, usize, f64);

/// `--max-ms` label that bounds the model build (`coverage_ms +
/// graph_ms`) of every leg at a size instead of one leg's schedule.
const MODEL_LABEL: &str = "model";

/// Parses a `--max-ms LABEL:N:MS` specification.
fn parse_max_ms(spec: &str) -> MaxMs {
    let parts: Vec<&str> = spec.split(':').collect();
    assert!(
        parts.len() == 3,
        "--max-ms takes LABEL:N_READERS:MAX_MS, got {spec:?}"
    );
    (
        parts[0].to_string(),
        parts[1].parse().expect("--max-ms size must be an integer"),
        parts[2].parse().expect("--max-ms bound must be a number"),
    )
}

/// Requires every (n, algorithm) leg present in both reports to be at
/// least `min_speedup`× faster than the baseline. Both legs must have run
/// the same number of trials, since the counts come from the last trial's
/// seed. Returns how many legs were compared.
fn compare(report: &Report, baseline: &Report, min_speedup: f64) -> Result<usize, String> {
    let mut compared = 0usize;
    for e in &report.entries {
        let Some(base) = baseline
            .entries
            .iter()
            .find(|b| b.n_readers == e.n_readers && b.algorithm == e.algorithm)
        else {
            continue;
        };
        if e.trials != base.trials {
            return Err(format!(
                "n={} {}: the report ran {} trials and the baseline {}; \
                 their counts come from different seeds",
                e.n_readers, e.algorithm, e.trials, base.trials
            ));
        }
        compared += 1;
        let speedup = base.schedule_wall_ms / e.schedule_wall_ms;
        if speedup < min_speedup {
            return Err(format!(
                "n={} {}: {:.1} ms is only {:.2}× the seed baseline's {:.1} ms \
                 (floor {min_speedup}×)",
                e.n_readers, e.algorithm, e.schedule_wall_ms, speedup, base.schedule_wall_ms
            ));
        }
    }
    Ok(compared)
}

/// Checks one `--max-ms` ceiling and describes what it bounded: the
/// schedule time of one algorithm's leg, or with [`MODEL_LABEL`] the
/// model build of every leg at that size.
fn within_ceiling(report: &Report, (label, n, bound): &MaxMs) -> Result<Vec<String>, String> {
    let legs: Vec<&Entry> = report
        .entries
        .iter()
        .filter(|e| e.n_readers == *n && (label == MODEL_LABEL || e.algorithm == *label))
        .collect();
    if legs.is_empty() {
        return Err(format!("--max-ms {label}:{n}: no such leg"));
    }
    legs.iter()
        .map(|e| {
            let (what, ms) = if label == MODEL_LABEL {
                ("model build", e.coverage_ms + e.graph_ms)
            } else {
                ("schedule", e.schedule_wall_ms)
            };
            if ms > *bound {
                return Err(format!(
                    "n={n} {}: {what} {ms:.1} ms exceeds the {bound:.1} ms ceiling",
                    e.algorithm
                ));
            }
            Ok(format!(
                "n={n} {}: {what} {ms:.1} ms within the {bound:.1} ms ceiling",
                e.algorithm
            ))
        })
        .collect()
}

/// Validates a BENCH_mcs.json: parses, checks the schema and that every
/// entry carries positive wall times. With `against`, additionally
/// compares it with the baseline ([`compare`]) — the anti-rot gate CI
/// runs on the committed reports. `max_ms` entries pin absolute ceilings.
/// Exits non-zero on failure so CI can gate on it.
fn check(
    path: &PathBuf,
    against: Option<&PathBuf>,
    min_speedup: f64,
    max_ms: &[MaxMs],
) -> Result<(), String> {
    let load = |p: &PathBuf| -> Result<Report, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p:?}: {e}"))?;
        let report: Report =
            serde_json::from_str(&text).map_err(|e| format!("malformed {p:?}: {e}"))?;
        if report.bench != "mcs_scaling" {
            return Err(format!("wrong bench name {:?}", report.bench));
        }
        if report.schema_version != 2 {
            return Err(format!("unknown schema_version {}", report.schema_version));
        }
        if report.entries.is_empty() {
            return Err("no entries".into());
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        for e in &report.entries {
            if !positive(e.schedule_wall_ms) || !positive(e.slots_per_sec) || e.slots == 0 {
                return Err(format!(
                    "degenerate entry for n={} {}: {e:?}",
                    e.n_readers, e.algorithm
                ));
            }
            let phases = [e.generate_ms, e.coverage_ms, e.graph_ms];
            if phases.iter().any(|p| !p.is_finite() || *p < 0.0) {
                return Err(format!(
                    "negative or non-finite phase timing for n={} {}",
                    e.n_readers, e.algorithm
                ));
            }
            if e.total_wall_ms + 1e-9 < e.schedule_wall_ms {
                return Err(format!(
                    "total wall below schedule wall for n={} {}",
                    e.n_readers, e.algorithm
                ));
            }
        }
        Ok(report)
    };
    let report = load(path)?;
    if let Some(seed_path) = against {
        let compared = compare(&report, &load(seed_path)?, min_speedup)?;
        if compared == 0 {
            return Err(format!(
                "no (n, algorithm) leg of {path:?} appears in the baseline {seed_path:?}"
            ));
        }
        println!("{compared} legs at or above the {min_speedup}× floor vs {seed_path:?}");
    }
    for ceiling in max_ms {
        for line in within_ceiling(&report, ceiling).map_err(|e| format!("{e} in {path:?}"))? {
            println!("{line}");
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes = vec![200usize, 1000, 5000, 20000, 100000];
    let mut trials = 1usize;
    let mut out = PathBuf::from("results/BENCH_mcs.json");
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace = false;
    let mut check_path: Option<PathBuf> = None;
    let mut against: Option<PathBuf> = None;
    let mut min_speedup = 1.0f64;
    let mut max_ms: Vec<MaxMs> = Vec::new();
    let mut check_metrics_path: Option<PathBuf> = None;
    let mut schema_path = PathBuf::from("results/mcs_metrics.schema.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => sizes = vec![200],
            "--trace" => trace = true,
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(&args[i]));
            }
            "--check-metrics" => {
                i += 1;
                check_metrics_path = Some(PathBuf::from(&args[i]));
            }
            "--schema" => {
                i += 1;
                schema_path = PathBuf::from(&args[i]);
            }
            "--sizes" => {
                i += 1;
                sizes = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("--sizes takes comma-separated integers"))
                    .collect();
            }
            "--trials" => {
                i += 1;
                trials = args[i].parse().expect("--trials takes a number");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            "--check" => {
                i += 1;
                check_path = Some(PathBuf::from(&args[i]));
            }
            "--against" => {
                i += 1;
                against = Some(PathBuf::from(&args[i]));
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = args[i].parse().expect("--min-speedup takes a number");
            }
            "--max-ms" => {
                i += 1;
                max_ms.push(parse_max_ms(&args[i]));
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if let Some(path) = check_path {
        match check(&path, against.as_ref(), min_speedup, &max_ms) {
            Ok(()) => {
                println!("{path:?} ok");
                return;
            }
            Err(e) => {
                eprintln!("BENCH check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = check_metrics_path {
        match check_metrics(&path, &schema_path) {
            Ok(()) => {
                println!("{path:?} conforms to {schema_path:?}");
                return;
            }
            Err(e) => {
                eprintln!("metrics check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    assert!(trials > 0, "need at least one trial");

    // The two covering-schedule drivers whose hot paths the perf layer
    // targets: the paper's central Algorithm 2 and the GHC baseline.
    let lineup = [AlgorithmKind::LocalGreedy, AlgorithmKind::HillClimbing];
    let observe = trace || metrics_out.is_some();
    let mut entries = Vec::new();
    let mut runs: Vec<(usize, String, RunMetrics)> = Vec::new();
    println!("| n | algorithm | slots | schedule ms | slots/sec | peak RSS MB |");
    println!("|---|---|---|---|---|---|");
    for &n in &sizes {
        for &kind in &lineup {
            let (e, m) = measure(n, kind, trials, observe);
            println!(
                "| {} | {} | {} | {:.1} | {:.1} | {:.1} |",
                e.n_readers,
                e.algorithm,
                e.slots,
                e.schedule_wall_ms,
                e.slots_per_sec,
                e.peak_rss_kb as f64 / 1024.0
            );
            if let Some(m) = m {
                if trace {
                    println!("metrics snapshot for n={n} {}:", e.algorithm);
                    println!("{}", m.snapshot_json);
                }
                runs.push((n, e.algorithm.clone(), m));
            }
            entries.push(e);
        }
    }
    let report = Report {
        bench: "mcs_scaling".into(),
        schema_version: 2,
        tags_per_reader: TAGS_PER_READER,
        lambda_interference: LAMBDA_INTERFERENCE,
        lambda_interrogation: LAMBDA_INTERROGATION,
        entries,
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_mcs.json");
    check(&out, None, 1.0, &[]).expect("self-check of the just-written report");
    println!("wrote {out:?}");
    if let Some(metrics_path) = metrics_out {
        if let Some(dir) = metrics_path.parent() {
            std::fs::create_dir_all(dir).expect("create metrics directory");
        }
        std::fs::write(&metrics_path, metrics_report(&runs)).expect("write metrics JSON");
        check_metrics(&metrics_path, &schema_path)
            .expect("self-check of the just-written metrics against the schema");
        println!("wrote {metrics_path:?} (validated against {schema_path:?})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n_readers: usize, algorithm: &str, trials: usize, schedule_wall_ms: f64) -> Entry {
        Entry {
            n_readers,
            n_tags: n_readers * TAGS_PER_READER,
            algorithm: algorithm.to_string(),
            trials,
            slots: 7,
            tags_served: 100,
            fallback_slots: 0,
            schedule_wall_ms,
            total_wall_ms: schedule_wall_ms + 3.0,
            generate_ms: 1.0,
            coverage_ms: 1.5,
            graph_ms: 0.5,
            peak_rss_kb: 0,
            slots_per_sec: 1.0,
        }
    }

    fn report(entries: Vec<Entry>) -> Report {
        Report {
            bench: "mcs_scaling".into(),
            schema_version: 2,
            tags_per_reader: TAGS_PER_READER,
            lambda_interference: LAMBDA_INTERFERENCE,
            lambda_interrogation: LAMBDA_INTERROGATION,
            entries,
        }
    }

    #[test]
    fn against_refuses_reports_of_different_trial_counts() {
        let baseline = report(vec![entry(1000, "ghc", 3, 10.0)]);
        assert_eq!(
            compare(&report(vec![entry(1000, "ghc", 3, 5.0)]), &baseline, 1.0),
            Ok(1)
        );
        let err = compare(&report(vec![entry(1000, "ghc", 2, 5.0)]), &baseline, 1.0).unwrap_err();
        assert!(
            err.contains("2 trials") && err.contains("baseline 3"),
            "{err}"
        );
    }

    #[test]
    fn model_ceiling_bounds_coverage_plus_graph_of_every_leg() {
        let mut slow = entry(1000, "ghc", 3, 1.0);
        slow.coverage_ms = 9.0;
        let r = report(vec![entry(1000, "alg2-central", 3, 50.0), slow]);
        let model = |bound| within_ceiling(&r, &(MODEL_LABEL.to_string(), 1000, bound));
        assert_eq!(model(10.0).map(|lines| lines.len()), Ok(2));
        let err = model(5.0).unwrap_err();
        assert!(err.contains("ghc") && err.contains("9.5 ms"), "{err}");
        // An algorithm label still bounds that leg's schedule alone.
        assert!(within_ceiling(&r, &("ghc".to_string(), 1000, 2.0)).is_ok());
        assert!(within_ceiling(&r, &("alg2-central".to_string(), 1000, 2.0)).is_err());
        assert!(within_ceiling(&r, &("ghc".to_string(), 5000, 2.0)).is_err());
    }
}
