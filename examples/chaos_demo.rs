//! Fault-tolerance demo — Algorithm 3 under injected faults.
//!
//! Runs the distributed scheduler through three fault regimes from one
//! seeded [`FaultPlan`] description: lossy links (ack/retransmit recovery),
//! a crash of the heaviest reader (watchdog suspicion + re-election), and
//! a total blackout (every message lost) — then drives a full covering
//! schedule through the crash-tolerant slot loop.
//!
//! ```text
//! cargo run --release --example chaos_demo
//! ```

use rfid_core::{DistributedScheduler, OneShotInput, OneShotScheduler, TraceEvent};
use rfid_model::interference::interference_graph;
use rfid_model::{singleton_weight, Coverage, RadiusModel, Scenario, ScenarioKind, TagSet};
use rfid_netsim::FaultPlan;
use rfid_sim::SlotSimulator;

fn main() {
    let scenario = Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers: 30,
        n_tags: 400,
        region_side: 60.0,
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 12.0,
            lambda_interrogation: 6.0,
        },
    };
    let deployment = scenario.generate(7);
    let coverage = Coverage::build(&deployment);
    let graph = interference_graph(&deployment);
    let unread = TagSet::all_unread(deployment.n_tags());
    let input = OneShotInput::new(&deployment, &coverage, &graph, &unread);

    // Fault-free reference.
    let clean = DistributedScheduler::default().schedule(&input);
    println!(
        "fault-free Algorithm 3: {} active, w = {}\n",
        clean.len(),
        input.weight_of(&clean)
    );

    // The heaviest reader is the likely head — the worst one to lose.
    let heaviest = (0..deployment.n_readers())
        .max_by_key(|&v| (singleton_weight(&coverage, v, &unread), v))
        .expect("non-empty deployment");

    let regimes = [
        ("20% message loss", FaultPlan::seeded(1).with_loss(0.2)),
        (
            "heaviest reader crashes at round 1",
            FaultPlan::seeded(2).with_crash(heaviest, 1),
        ),
        (
            "total blackout (100% loss)",
            FaultPlan::seeded(3).with_loss(1.0),
        ),
    ];
    println!("| regime | active | w(X) | rounds | retransmits | crashed | suspected | quiescent |");
    println!("|---|---|---|---|---|---|---|---|");
    for (label, plan) in regimes {
        let mut s = DistributedScheduler::default().with_faults(plan);
        let set = s.schedule(&input);
        assert!(
            deployment.is_feasible(&set),
            "{label}: infeasible activation"
        );
        let stats = s.last_stats.expect("stats recorded");
        let summary = s.last_summary.expect("summary recorded");
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} |",
            set.len(),
            input.weight_of(&set),
            stats.rounds,
            stats.retransmits,
            summary.crashed,
            summary.suspected,
            summary.quiescent
        );
    }

    // The crash regime, replayed for its recovery trace.
    let mut s =
        DistributedScheduler::default().with_faults(FaultPlan::seeded(2).with_crash(heaviest, 1));
    let set = s.schedule(&input);
    assert!(!set.contains(&heaviest), "a crashed reader must stay dark");
    println!("\nrecovery trace around the crash of reader {heaviest}:");
    for (round, event) in s.last_trace.expect("trace recorded") {
        match event {
            TraceEvent::TimeoutSuspect { node, suspect } if suspect == heaviest as u32 => {
                println!("  round {round:>3}: reader {node} suspects {suspect} (watchdog)")
            }
            TraceEvent::ReElected { node, deposed } if deposed == heaviest as u32 => {
                println!("  round {round:>3}: reader {node} re-elected over {deposed}")
            }
            _ => {}
        }
    }

    // Full covering schedule through the crash-tolerant slot loop.
    let sim = SlotSimulator::new(&deployment);
    let plan = FaultPlan::seeded(5)
        .with_loss(0.15)
        .with_crash(heaviest, 3)
        .with_crash((heaviest + 1) % deployment.n_readers(), 8);
    let mut s = DistributedScheduler::default().with_faults(plan);
    let rep = sim.run_resilient(&mut s);
    println!(
        "\nresilient covering schedule under loss + two crashes:\n  \
         {} slots, {} tags served, {} abandoned (no surviving coverer),\n  \
         {} RTc pairs repaired in-slot, {} crashed activations stripped",
        rep.report.schedule.slots.len(),
        rep.report.schedule.tags_served(),
        rep.abandoned_tags.len(),
        rep.repaired_pairs,
        rep.crashed_dropped
    );
}
