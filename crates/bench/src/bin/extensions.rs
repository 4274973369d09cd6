//! Extension experiments beyond the paper's four figures:
//!
//! 1. **Dynamic arrivals** — steady-state throughput and service latency
//!    vs offered load (the static-tag assumption the paper flags in Zhou
//!    et al. removed).
//! 2. **Activation stability** — per-algorithm churn of the MCS schedules
//!    (the RASPberry \[9\] concern).

use rfid_core::{covering_schedule_with, make_scheduler, AlgorithmKind, McsOptions};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind};
use rfid_sim::metrics::activation_churn;
use rfid_sim::{run_dynamic, DynamicConfig};

fn scenario(n_readers: usize, n_tags: usize) -> Scenario {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers,
        n_tags,
        region_side: 100.0,
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 14.0,
            lambda_interrogation: 6.0,
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: Vec<u64> = if quick {
        (0..2).collect()
    } else {
        (0..8).collect()
    };
    let n_readers = if quick { 20 } else { 50 };

    println!("## Extension 1 — dynamic tag arrivals (steady state, 200 slots, 40 warm-up)\n");
    println!("| arrival rate | algorithm | throughput (tags/slot) | mean latency | p95 latency | backlog |");
    println!("|---|---|---|---|---|---|");
    let readers = scenario(n_readers, 0);
    for &rate in &[5.0, 15.0, 40.0] {
        for kind in [
            AlgorithmKind::LocalGreedy,
            AlgorithmKind::HillClimbing,
            AlgorithmKind::Colorwave,
        ] {
            let mut thr = 0.0;
            let mut lat = 0.0;
            let mut p95 = 0u64;
            let mut backlog = 0usize;
            for &seed in &seeds {
                let d = readers.generate(seed);
                let mut s = make_scheduler(kind, seed);
                let report = run_dynamic(
                    &d,
                    DynamicConfig {
                        arrival_rate: rate,
                        slots: if quick { 80 } else { 200 },
                        warmup: if quick { 20 } else { 40 },
                        seed,
                    },
                    s.as_mut(),
                );
                thr += report.throughput;
                lat += report.mean_latency;
                p95 = p95.max(report.p95_latency);
                backlog += report.backlog;
            }
            let n = seeds.len() as f64;
            println!(
                "| {rate} | {} | {:.1} | {:.2} | {p95} | {:.0} |",
                kind.label(),
                thr / n,
                lat / n,
                backlog as f64 / n
            );
        }
    }

    println!("\n## Extension 2 — activation stability (mean churn of MCS slots)\n");
    println!("| algorithm | churn (0 = stable, 1 = full swap each slot) | slots |");
    println!("|---|---|---|");
    for kind in AlgorithmKind::paper_lineup() {
        let mut churn = 0.0;
        let mut slots = 0usize;
        for &seed in &seeds {
            let d = scenario(n_readers, if quick { 300 } else { 1200 }).generate(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let mut s = make_scheduler(kind, seed);
            let schedule = covering_schedule_with(
                &d,
                &c,
                &g,
                s.as_mut(),
                &McsOptions::new().max_slots(100_000),
            )
            .expect("strict covering schedule diverged")
            .schedule;
            let active: Vec<Vec<usize>> = schedule.slots.iter().map(|s| s.active.clone()).collect();
            churn += activation_churn(&active);
            slots += schedule.size();
        }
        let n = seeds.len() as f64;
        println!(
            "| {} | {:.3} | {:.1} |",
            kind.label(),
            churn / n,
            slots as f64 / n
        );
    }
}
