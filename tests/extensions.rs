//! Integration tests for the extension features: mobility, dynamic
//! arrivals, timetables, and faulted distributed runs — all exercised
//! through the public APIs together.

use rfid_core::{
    covering_schedule_with, make_scheduler, AlgorithmKind, DistributedScheduler, McsOptions,
    OneShotInput, OneShotScheduler,
};
use rfid_integration_tests::scenario;
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, TagSet};
use rfid_netsim::FaultPlan;
use rfid_sim::metrics::activation_churn;
use rfid_sim::{run_dynamic, DynamicConfig, MobilityModel, MobilitySim, Timetable};

#[test]
fn mobile_run_with_distributed_scheduler() {
    // The full stack: mobility × message-passing scheduler.
    let initial = scenario(10, 150, 12.0, 8.0).generate(5);
    let sim = MobilitySim {
        initial: initial.clone(),
        model: MobilityModel::RandomWaypoint { speed: 10.0 },
        slots_per_epoch: 1,
        max_epochs: 80,
        seed: 5,
    };
    let mut scheduler = DistributedScheduler::default();
    let report = sim.run(&mut scheduler);
    let static_coverable = Coverage::build(&initial).coverable_count();
    assert!(report.total_served >= static_coverable);
}

#[test]
fn dynamic_arrivals_with_every_paper_algorithm() {
    let readers = scenario(12, 0, 13.0, 7.0).generate(2);
    for kind in AlgorithmKind::paper_lineup() {
        let mut s = make_scheduler(kind, 1);
        let report = run_dynamic(
            &readers,
            DynamicConfig {
                arrival_rate: 4.0,
                slots: 40,
                warmup: 8,
                seed: 3,
            },
            s.as_mut(),
        );
        assert!(report.served > 0, "{kind:?} served nothing");
        assert!(report.throughput > 0.0);
    }
}

#[test]
fn timetable_matches_schedule_and_churn() {
    let d = scenario(20, 300, 13.0, 6.0).generate(9);
    let c = Coverage::build(&d);
    let g = interference_graph(&d);
    let mut s = make_scheduler(AlgorithmKind::LocalGreedy, 0);
    let schedule = covering_schedule_with(
        &d,
        &c,
        &g,
        s.as_mut(),
        &McsOptions::new().max_slots(100_000),
    )
    .expect("strict covering schedule diverged")
    .schedule;
    let table = Timetable::build(&schedule, d.n_readers());
    // total activations agree between the two views
    let slot_major: usize = schedule.slots.iter().map(|s| s.active.len()).sum();
    let reader_major: usize = (0..d.n_readers()).map(|v| table.active[v].len()).sum();
    assert_eq!(slot_major, reader_major);
    assert!(table.mean_duty_cycle() <= 1.0);
    // churn is defined on the same slot-major view
    let active: Vec<Vec<usize>> = schedule.slots.iter().map(|s| s.active.clone()).collect();
    let churn = activation_churn(&active);
    assert!((0.0..=1.0).contains(&churn));
    // render does not panic and covers every reader
    let text = table.render_text();
    assert_eq!(text.lines().count(), d.n_readers());
}

#[test]
fn faulted_distributed_stays_consistent_with_audit() {
    use rfid_model::audit_activation;
    let d = scenario(25, 300, 14.0, 6.0).generate(7);
    let c = Coverage::build(&d);
    let g = interference_graph(&d);
    let unread = TagSet::all_unread(d.n_tags());
    let input = OneShotInput::new(&d, &c, &g, &unread);
    let plan = FaultPlan::seeded(11)
        .with_loss(0.3)
        .with_crash(3, 2)
        .with_crash(8, 5);
    let mut s = DistributedScheduler::default().with_faults(plan);
    let set = s.schedule(&input);
    let audit = audit_activation(&d, &c, &set, &unread);
    assert!(
        audit.is_feasible(),
        "loss+crash run produced RTc: {:?}",
        audit.rtc_pairs
    );
    assert!(!set.contains(&3) && !set.contains(&8));
}
