//! The repository's benchmark: workloads driven over loopback TCP
//! through an in-process `rfid_serve::Server` (and a `Router` for
//! `fleet-hits`), every reply checked, end-to-end metrics printed by name
//! and unit. `--trace 1` instead times the calls into each layer's public
//! functions on the same inputs and prints the per-layer metrics.
//!
//! Usage (from the repository root):
//!   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!       --workload hot-read --seed 1 --seconds 10 --trace 0
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md
//! for the workloads, the metrics and the layer map.

mod layers;
mod stats;
mod trace;
mod wire;
mod workloads;

use stats::{median, Accounting, Summary};
use workloads::{Inputs, Kind, Run};

const USAGE: &str =
    "usage: perfbench --workload <hot-read|cold-solve|delta-churn|fleet-hits> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(std::path::PathBuf);

impl Scratch {
    fn create(kind: Kind) -> std::io::Result<Scratch> {
        let dir = std::path::Path::new(".perfbench_tmp").join(format!(
            "{}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(kind: Kind, run: &Run) -> Vec<Metric> {
    let (tail_cap, miss_cap) = kind.tail_caps();
    let out = &run.out;
    let latency = Summary::of(out.latency_ms.samples(), tail_cap);
    // Misses: the timed window's for workloads that solve under load, the
    // set-up solves for the hit workloads.
    let (miss_samples, slots) = match kind {
        Kind::ColdSolve | Kind::DeltaChurn => (&out.miss_ms, &out.slots),
        Kind::HotRead | Kind::FleetHits => (&run.setup_miss_ms, &run.setup_slots),
    };
    let miss = Summary::of(miss_samples, miss_cap);
    let total_slots: u64 = slots.iter().map(|s| s.0).sum();
    let fallback: u64 = slots.iter().map(|s| s.1).sum();
    println!(
        "latency: {} samples of {} replies, tail = p{}; misses: {} samples, tail = p{}",
        latency.count,
        out.latency_ms.seen(),
        latency.tail_pct,
        miss.count,
        miss.tail_pct
    );
    // The fallback share is printed, not bounded: it is deterministic per
    // seed, swings widely across seeds on the small hot set, and is 0 once
    // Algorithm 2 stops falling back.
    println!(
        "quality: {} solved payloads, {total_slots} slots, {fallback} fallback slots (fallback_ratio {})",
        slots.len(),
        fallback as f64 / total_slots.max(1) as f64
    );
    vec![
        metric("setup_s", "s", median(&run.setup_s)),
        metric("req_per_s", "1/s", median(&out.slice_rates)),
        metric("latency_p50_ms", "ms", latency.p50),
        metric("latency_tail_ms", "ms", latency.tail),
        metric("miss_p50_ms", "ms", miss.p50),
        metric("miss_tail_ms", "ms", miss.tail),
        metric(
            "slots_per_job",
            "count",
            total_slots as f64 / slots.len().max(1) as f64,
        ),
        metric("peak_rss_mb", "MiB", run.peak_rss_mb),
    ]
}

fn print_accounting(acct: &Accounting) {
    for (class, c) in &acct.classes {
        let errors: Vec<String> = c.errors.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "class {class}: sent {} succeeded {} failed {} (errors [{}], mismatched {})",
            c.sent,
            c.succeeded,
            c.failed(),
            errors.join(" "),
            c.mismatched
        );
    }
    println!(
        "failed_ratio {} ({} of {} attempted)",
        acct.failed_ratio(),
        acct.failed(),
        acct.attempted()
    );
}

fn result_json(acct: &Accounting, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        acct.failed() == 0,
        acct.attempted().max(1),
        acct.failed(),
        body.join(",")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::create(args.kind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create a scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let inputs = Inputs::generate(args.kind, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {} ({} frames)",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        inputs.wire.len()
    );
    let (acct, metrics) = if args.trace {
        layers::traced(&inputs, scratch.path(), args.seconds)
    } else {
        let run = workloads::measure(&inputs, scratch.path(), args.seconds);
        let metrics = end_to_end(args.kind, &run);
        (run.acct, metrics)
    };
    print_accounting(&acct);
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    drop(scratch);
    println!("{}", result_json(&acct, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut acct = Accounting::default();
        acct.succeeded("key");
        let line = result_json(&acct, &[metric("req_per_s", "1/s", 1234.5)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"req_per_s\":{\"value\":1234.5,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload cold-solve --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Kind::ColdSolve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload hot-read --trace 2")).is_err());
        assert!(parse_args(&argv("--workload hot-read --seconds")).is_err());
    }
}
