//! Property-based tests for the schedulers, on deployments with *wild*
//! radius distributions (the "general case" the paper is about —
//! per-reader radii spanning orders of magnitude).

use proptest::prelude::*;
use rfid_core::exact::exact_mwfs_restricted;
use rfid_core::{
    covering_schedule_with, make_scheduler, AlgorithmKind, McsOptions, OneShotInput,
    OneShotScheduler,
};
use rfid_geometry::{Point, Rect};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment, TagSet, WeightEvaluator};

/// Deployments with radii spanning two orders of magnitude — far harsher
/// than the Poisson evaluation model; exactly the multi-level regime the
/// PTAS level partition exists for.
fn arb_wild_deployment() -> impl Strategy<Value = Deployment> {
    let reader = (0.0..100.0f64, 0.0..100.0f64, 0.5..60.0f64, 0.05..1.0f64);
    let tag = (0.0..100.0f64, 0.0..100.0f64);
    (
        proptest::collection::vec(reader, 1..18),
        proptest::collection::vec(tag, 1..80),
    )
        .prop_map(|(readers, tags)| {
            let mut pos = Vec::new();
            let mut big = Vec::new();
            let mut small = Vec::new();
            for (x, y, interference, frac) in readers {
                pos.push(Point::new(x, y));
                big.push(interference);
                small.push(interference * frac);
            }
            Deployment::new(
                Rect::square(100.0),
                pos,
                big,
                small,
                tags.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Feasibility of every scheduler under extreme radius heterogeneity.
    #[test]
    fn schedulers_stay_feasible_on_wild_radii(d in arb_wild_deployment(), seed in 0u64..50) {
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        for kind in AlgorithmKind::paper_lineup() {
            let set = make_scheduler(kind, seed).schedule(&input);
            prop_assert!(d.is_feasible(&set), "{:?} produced {:?}", kind, set);
        }
    }

    /// Exact MWFS dominates singletons and respects the sub-additive
    /// upper bound.
    #[test]
    fn exact_solution_bounds(d in arb_wild_deployment()) {
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let all: Vec<usize> = (0..d.n_readers()).collect();
        let best = exact_mwfs_restricted(&c, &g, &unread, &all, &[]);
        let mut w = WeightEvaluator::new(&c);
        let best_w = w.weight(&best, &unread);
        let max_singleton = (0..d.n_readers())
            .map(|v| w.singleton_weight(v, &unread))
            .max()
            .unwrap_or(0);
        prop_assert!(best_w >= max_singleton, "optimum at least the best singleton");
        let singleton_total: usize = (0..d.n_readers())
            .map(|v| w.singleton_weight(v, &unread))
            .sum();
        prop_assert!(best_w <= singleton_total);
    }

    /// MCS completeness for every algorithm on wild deployments: every
    /// coverable tag is served exactly once, no matter the scheduler.
    #[test]
    fn covering_schedules_complete(d in arb_wild_deployment(), kind_idx in 0usize..5) {
        let kind = AlgorithmKind::paper_lineup()[kind_idx];
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut scheduler = make_scheduler(kind, 3);
        let schedule = covering_schedule_with(
            &d, &c, &g, scheduler.as_mut(), &McsOptions::new().max_slots(50_000),
        )
        .expect("strict covering schedule diverged")
        .schedule;
        prop_assert_eq!(schedule.tags_served(), c.coverable_count(), "{:?}", kind);
        let mut seen = std::collections::BTreeSet::new();
        for slot in &schedule.slots {
            prop_assert!(d.is_feasible(&slot.active));
            for &t in &slot.served {
                prop_assert!(seen.insert(t), "tag {} served twice", t);
            }
        }
    }

    /// The exact solver with a base context never does worse than
    /// ignoring the candidates entirely.
    #[test]
    fn exact_with_base_is_monotone(d in arb_wild_deployment()) {
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let mut w = WeightEvaluator::new(&c);
        // base = heaviest reader alone
        let base_v = (0..d.n_readers())
            .max_by_key(|&v| w.singleton_weight(v, &unread))
            .unwrap();
        let candidates: Vec<usize> = (0..d.n_readers()).filter(|&v| v != base_v).collect();
        let extra = exact_mwfs_restricted(&c, &g, &unread, &candidates, &[base_v]);
        let mut union = extra.clone();
        union.push(base_v);
        prop_assert!(g.is_independent_set(&union));
        prop_assert!(
            w.weight(&union, &unread) >= w.weight(&[base_v], &unread),
            "context search must not lose weight"
        );
    }

    /// PTAS shifting invariance: whatever (k, Λ) we pick, the result is
    /// feasible and within the sub-additive upper bound.
    #[test]
    fn ptas_parameter_robustness(d in arb_wild_deployment(), k in 2usize..5, lambda in 1usize..5) {
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut s = rfid_core::PtasScheduler { k, lambda_cap: lambda, augment: false };
        let set = s.schedule(&input);
        prop_assert!(d.is_feasible(&set));
    }
}
