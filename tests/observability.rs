//! Observability contract tests: subscribers observe, they never steer.
//!
//! * Per-slot [`SlotMetrics`] must reconcile exactly with the covering
//!   schedule's own totals.
//! * Attaching any subscriber (no-op or recording) must leave the
//!   schedule byte-identical — the differential proptests compare the
//!   full `Debug` rendering of metrics-on vs metrics-off runs.

use proptest::prelude::*;
use rfid_core::{covering_schedule_with, AlgorithmKind, McsOptions, SchedulerRegistry};
use rfid_integration_tests::scenario;
use rfid_model::interference::interference_graph;
use rfid_model::Coverage;
use rfid_obs::{NoopSubscriber, Recorder};

const KINDS: [AlgorithmKind; 5] = [
    AlgorithmKind::Ptas,
    AlgorithmKind::LocalGreedy,
    AlgorithmKind::Distributed,
    AlgorithmKind::Colorwave,
    AlgorithmKind::HillClimbing,
];

#[test]
fn slot_metrics_reconcile_with_schedule_totals() {
    let registry = SchedulerRegistry::global();
    for kind in KINDS {
        for seed in [0u64, 11, 42] {
            let d = scenario(18, 260, 13.0, 6.0).generate(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let mut s = registry.instantiate(kind, seed);
            let run = covering_schedule_with(
                &d,
                &c,
                &g,
                s.as_mut(),
                &McsOptions::new().slot_metrics(true),
            )
            .expect("strict covering schedule diverged");
            let label = kind.label();
            let schedule = &run.schedule;
            assert_eq!(run.slot_metrics.len(), schedule.size(), "{label}");
            let mut served = 0usize;
            let mut fallback = 0usize;
            for (i, m) in run.slot_metrics.iter().enumerate() {
                assert_eq!(m.slot, i, "{label}");
                assert_eq!(m.active_readers, schedule.slots[i].active.len(), "{label}");
                assert_eq!(m.tags_served, schedule.slots[i].served.len(), "{label}");
                assert_eq!(m.fallback, schedule.slots[i].fallback, "{label}");
                served += m.tags_served;
                fallback += usize::from(m.fallback);
            }
            assert_eq!(served, schedule.tags_served(), "{label}");
            assert_eq!(fallback, schedule.fallback_slots(), "{label}");
        }
    }
}

#[test]
fn recorder_counters_match_schedule_totals() {
    let registry = SchedulerRegistry::global();
    let d = scenario(20, 300, 13.0, 6.0).generate(5);
    let c = Coverage::build(&d);
    let g = interference_graph(&d);
    for kind in KINDS {
        let recorder = Recorder::new();
        let mut s = registry.instantiate(kind, 5);
        let run = covering_schedule_with(
            &d,
            &c,
            &g,
            s.as_mut(),
            &McsOptions::new().subscriber(&recorder),
        )
        .expect("strict covering schedule diverged");
        let snap = recorder.snapshot();
        let label = kind.label();
        assert_eq!(
            snap.counter("mcs.slots") as usize,
            run.schedule.size(),
            "{label}"
        );
        assert_eq!(
            snap.counter("mcs.tags_served") as usize,
            run.schedule.tags_served(),
            "{label}"
        );
        assert_eq!(
            snap.counter("mcs.fallback_slots") as usize,
            run.schedule.fallback_slots(),
            "{label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism contract, differentially: a run with no subscriber,
    /// a run with a no-op subscriber, and a run with a full recorder plus
    /// slot metrics must produce byte-identical schedules.
    #[test]
    fn subscribers_never_change_the_schedule(
        seed in 0u64..500,
        n_readers in 8usize..26,
        kind_idx in 0usize..KINDS.len(),
    ) {
        let kind = KINDS[kind_idx];
        let d = scenario(n_readers, n_readers * 12, 13.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let registry = SchedulerRegistry::global();

        let plain = covering_schedule_with(
            &d, &c, &g,
            registry.instantiate(kind, seed).as_mut(),
            &McsOptions::new(),
        ).expect("strict covering schedule diverged").schedule;

        let noop = NoopSubscriber;
        let with_noop = covering_schedule_with(
            &d, &c, &g,
            registry.instantiate(kind, seed).as_mut(),
            &McsOptions::new().subscriber(&noop),
        ).expect("strict covering schedule diverged").schedule;

        let recorder = Recorder::new();
        let observed = covering_schedule_with(
            &d, &c, &g,
            registry.instantiate(kind, seed).as_mut(),
            &McsOptions::new().subscriber(&recorder).slot_metrics(true),
        ).expect("strict covering schedule diverged").schedule;

        // Byte-identical, not merely equal: compare the full rendering.
        let bytes = |s: &rfid_core::CoveringSchedule| format!("{s:?}");
        prop_assert_eq!(bytes(&plain), bytes(&with_noop), "no-op subscriber steered {:?}", kind);
        prop_assert_eq!(bytes(&plain), bytes(&observed), "recorder steered {:?}", kind);
    }

    /// Recorder snapshots themselves are deterministic: two identical
    /// observed runs render identical snapshot JSON (wall times excluded).
    #[test]
    fn snapshots_are_deterministic(seed in 0u64..200, kind_idx in 0usize..KINDS.len()) {
        let kind = KINDS[kind_idx];
        let d = scenario(14, 180, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let registry = SchedulerRegistry::global();
        let json = || {
            let recorder = Recorder::new();
            covering_schedule_with(
                &d, &c, &g,
                registry.instantiate(kind, seed).as_mut(),
                &McsOptions::new().subscriber(&recorder),
            ).expect("strict covering schedule diverged");
            recorder.snapshot().to_json()
        };
        prop_assert_eq!(json(), json());
    }
}
