//! Quickstart: build a deployment, run every one-shot scheduler, then run a
//! full covering schedule — the 60-second tour of the library.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rfid_core::{
    covering_schedule_with, AlgorithmKind, McsOptions, OneShotInput, SchedulerRegistry,
};
use rfid_examples::{describe_activation, describe_deployment};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, RadiusModel, Scenario, ScenarioKind, TagSet};
use rfid_obs::Recorder;

fn main() {
    // 1. A reproducible random deployment: 30 readers, 500 tags, Poisson
    //    radii with means λ_R = 12 and λ_r = 6 (the paper's general model —
    //    every reader gets its own interference/interrogation range).
    let scenario = Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers: 30,
        n_tags: 500,
        region_side: 100.0,
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: 12.0,
            lambda_interrogation: 6.0,
        },
    };
    let deployment = scenario.generate(7);

    // 2. Derived structures: who can read what, who jams whom.
    let coverage = Coverage::build(&deployment);
    let graph = interference_graph(&deployment);
    describe_deployment(&deployment, &graph);

    // 3. One-shot scheduling: pick a feasible set of readers for a single
    //    time slot, maximising the number of well-covered tags. The
    //    registry maps algorithm names to constructors; the input carries
    //    the unread tags and their per-reader weights.
    let registry = SchedulerRegistry::global();
    let unread = TagSet::all_unread(deployment.n_tags());
    let input = OneShotInput::new(&deployment, &coverage, &graph, &unread);
    // The exact solver is exponential — skip it beyond toy sizes.
    let lineup = || {
        registry
            .entries()
            .iter()
            .filter(|e| e.kind != AlgorithmKind::Exact)
    };
    println!("\none-shot schedules (fresh tag population):");
    for entry in lineup() {
        let mut scheduler = registry.instantiate(entry.kind, 1);
        let set = scheduler.schedule(&input);
        assert!(
            deployment.is_feasible(&set),
            "schedulers must avoid reader-tag collisions"
        );
        describe_activation(&input, entry.kind.label(), &set);
    }

    // 4. Covering schedule: iterate one-shot slots until every coverable
    //    tag has been read (the paper's MCS problem). A `Recorder`
    //    subscriber observes the run without changing the schedule.
    println!("\ncovering schedules (slots to read everything):");
    for entry in lineup() {
        let mut scheduler = registry.instantiate(entry.kind, 1);
        let recorder = Recorder::new();
        let run = covering_schedule_with(
            &deployment,
            &coverage,
            &graph,
            scheduler.as_mut(),
            &McsOptions::new().max_slots(100_000).subscriber(&recorder),
        )
        .expect("strict covering schedule diverged");
        let schedule = run.schedule;
        let snapshot = recorder.snapshot();
        println!(
            "  {:<18} {:>3} slots, {} tags served, {} unreachable, {} fallback slots observed",
            entry.kind.label(),
            schedule.size(),
            schedule.tags_served(),
            schedule.uncoverable.len(),
            snapshot.counter("mcs.fallback_slots"),
        );
    }
}
