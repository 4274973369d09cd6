//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. PTAS grid parameter `k` and the greedy augmentation step —
//!    one-shot weight and runtime.
//! 2. Algorithm 2's growth threshold ρ — one-shot weight and runtime.
//! 3. Empirical approximation ratios of every scheduler against the exact
//!    optimum on small instances (backing Theorems 2/4/6).
//! 4. Algorithm 3's communication cost as a function of `c`.
//! 5. Algorithm 3 under message loss, with the fault plan's
//!    ack/retransmit layer armed.
//! 6. Distance from local optimality (destroy-and-repair local search).

use rfid_core::{
    improve_schedule, make_scheduler, AlgorithmKind, DistributedScheduler, ExactScheduler,
    LocalGreedy, OneShotInput, OneShotScheduler, PtasScheduler,
};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind, TagSet};
use rfid_netsim::FaultPlan;
use std::time::Instant;

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

/// Mean one-shot weight and runtime of `scheduler` over seeds.
fn eval(
    s: Scenario,
    seeds: std::ops::Range<u64>,
    mut scheduler: impl OneShotScheduler,
) -> (f64, f64) {
    let mut total_w = 0.0;
    let mut total_ms = 0.0;
    let n = seeds.clone().count() as f64;
    for seed in seeds {
        let d = s.generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let t0 = Instant::now();
        let set = scheduler.schedule(&input);
        total_ms += t0.elapsed().as_secs_f64() * 1e3;
        assert!(d.is_feasible(&set));
        total_w += input.weight_of(&set) as f64;
    }
    (total_w / n, total_ms / n)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds = if quick { 0..3u64 } else { 0..10u64 };
    let s = scenario(if quick { 20 } else { 50 }, if quick { 300 } else { 1200 });

    println!(
        "## Ablation 1 — PTAS k and augmentation (one-shot weight, mean over {} seeds)\n",
        seeds.clone().count()
    );
    println!("| variant | weight | runtime ms |");
    println!("|---|---|---|");
    for k in [2usize, 3, 4] {
        for augment in [true, false] {
            let (w, ms) = eval(
                s,
                seeds.clone(),
                PtasScheduler {
                    k,
                    lambda_cap: 4,
                    augment,
                },
            );
            println!("| k={k}, augment={augment} | {w:.1} | {ms:.1} |");
        }
    }

    println!("\n## Ablation 2 — Algorithm 2 growth threshold ρ\n");
    println!("| ρ | weight | runtime ms |");
    println!("|---|---|---|");
    for rho in [1.1, 1.25, 1.5, 2.0] {
        let (w, ms) = eval(s, seeds.clone(), LocalGreedy::new(rho, 4));
        println!("| {rho} | {w:.1} | {ms:.1} |");
    }

    println!("\n## Ablation 3 — empirical approximation ratios vs exact (n = 14 readers)\n");
    let small = scenario(14, 300);
    println!("| algorithm | mean w/OPT | worst w/OPT |");
    println!("|---|---|---|");
    let mut ratios: Vec<(&str, Vec<f64>)> = vec![
        ("alg1-ptas", vec![]),
        ("alg2-central", vec![]),
        ("alg3-distributed", vec![]),
        ("ghc", vec![]),
    ];
    for seed in seeds.clone() {
        let d = small.generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let opt = input.weight_of(&ExactScheduler::default().schedule(&input)) as f64;
        if opt == 0.0 {
            continue;
        }
        let mut record = |i: usize, set: Vec<usize>| {
            ratios[i].1.push(input.weight_of(&set) as f64 / opt);
        };
        record(0, PtasScheduler::default().schedule(&input));
        record(1, LocalGreedy::default().schedule(&input));
        record(2, DistributedScheduler::default().schedule(&input));
        record(3, rfid_core::HillClimbing::default().schedule(&input));
    }
    for (name, rs) in &ratios {
        let mean = rs.iter().sum::<f64>() / rs.len() as f64;
        let worst = rs.iter().copied().fold(f64::INFINITY, f64::min);
        println!("| {name} | {mean:.3} | {worst:.3} |");
    }

    println!("\n## Ablation 4 — Algorithm 3 communication cost vs c\n");
    println!("| c | weight | rounds | messages | bytes |");
    println!("|---|---|---|---|---|");
    for c in [1u32, 2, 3, 4] {
        let mut total = (0.0f64, 0u64, 0u64, 0u64);
        for seed in seeds.clone() {
            let d = s.generate(seed);
            let cov = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &cov, &g, &unread);
            let mut sched = DistributedScheduler::with_params(1.25, c);
            let set = sched.schedule(&input);
            let stats = sched.last_stats.unwrap();
            total.0 += input.weight_of(&set) as f64;
            total.1 += stats.rounds;
            total.2 += stats.messages;
            total.3 += stats.bytes;
        }
        let n = seeds.clone().count() as f64;
        println!(
            "| {c} | {:.1} | {:.1} | {:.0} | {:.0} |",
            total.0 / n,
            total.1 as f64 / n,
            total.2 as f64 / n,
            total.3 as f64 / n
        );
    }

    println!("\n## Ablation 5 — Algorithm 3 under message loss (acks and retransmission)\n");
    println!("| loss p | weight | dropped/messages |");
    println!("|---|---|---|");
    for p in [0.0, 0.1, 0.25, 0.5] {
        let mut total_w = 0.0;
        let mut dropped = 0u64;
        let mut messages = 0u64;
        for seed in seeds.clone() {
            let d = s.generate(seed);
            let cov = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &cov, &g, &unread);
            let mut sched =
                DistributedScheduler::default().with_faults(FaultPlan::seeded(seed).with_loss(p));
            let set = sched.schedule(&input);
            assert!(d.is_feasible(&set));
            total_w += input.weight_of(&set) as f64;
            let stats = sched.last_stats.unwrap();
            dropped += stats.dropped;
            messages += stats.messages;
        }
        println!(
            "| {p} | {:.1} | {dropped}/{messages} |",
            total_w / seeds.clone().count() as f64
        );
    }

    println!(
        "\n## Ablation 6 — distance from local optimality (destroy-and-repair local search)\n"
    );
    println!("| algorithm | weight | after local search | gain % |");
    println!("|---|---|---|---|");
    for kind in AlgorithmKind::paper_lineup() {
        let mut base = 0.0;
        let mut improved = 0.0;
        for seed in seeds.clone() {
            let d = s.generate(seed);
            let cov = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &cov, &g, &unread);
            let set = make_scheduler(kind, seed).schedule(&input);
            let report = improve_schedule(&input, &set);
            base += report.initial_weight as f64;
            improved += report.final_weight as f64;
        }
        let gain = if base > 0.0 {
            100.0 * (improved - base) / base
        } else {
            0.0
        };
        let n = seeds.clone().count() as f64;
        println!(
            "| {} | {:.1} | {:.1} | {:.2}% |",
            kind.label(),
            base / n,
            improved / n,
            gain
        );
    }
}
