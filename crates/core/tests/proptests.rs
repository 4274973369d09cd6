//! Property-based tests for the schedulers, on deployments with *wild*
//! radius distributions (the "general case" the paper is about —
//! per-reader radii spanning orders of magnitude).

use proptest::prelude::*;
use rfid_core::exact::exact_mwfs_restricted;
use rfid_core::{
    covering_schedule_with, make_scheduler, AlgorithmKind, HillClimbing, McsOptions, OneShotInput,
    OneShotScheduler,
};
use rfid_geometry::{Point, Rect};
use rfid_model::interference::interference_graph;
use rfid_model::{
    singleton_weight, Coverage, Deployment, IncrementalCore, ReaderId, Scenario, TagSet,
    WeightEvaluator,
};
use std::cmp::Reverse;

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

/// Textbook eager GHC, the reference the engine is compared against:
/// each pick scores every non-blocked, non-active reader in id order with
/// `delta_if_added`, takes the `(delta, Reverse(v))` argmax and stops on
/// the same rule as [`HillClimbing`].
fn eager_ghc(input: &OneShotInput<'_>, admit_zero_gain: bool) -> Vec<ReaderId> {
    let mut inc = IncrementalCore::new();
    inc.reset(input.coverage, input.unread);
    let mut blocked = vec![false; input.deployment.n_readers()];
    loop {
        let mut best: Option<(isize, Reverse<ReaderId>)> = None;
        for (v, &is_blocked) in blocked.iter().enumerate() {
            if is_blocked || inc.is_active(v) {
                continue;
            }
            let key = (inc.delta_if_added(input.coverage, v), Reverse(v));
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        let Some((delta, Reverse(v))) = best else {
            break;
        };
        if delta < 0 || (delta == 0 && !admit_zero_gain) {
            break;
        }
        inc.add(input.coverage, v);
        for &t in input.graph.neighbors(v) {
            blocked[t as usize] = true;
        }
    }
    let mut out = inc.active().to_vec();
    out.sort_unstable();
    out
}

fn ghc(admit_zero_gain: bool) -> HillClimbing {
    let mut engine = HillClimbing::default();
    engine.admit_zero_gain = admit_zero_gain;
    engine
}

/// Runs a warm [`HillClimbing`] through `covering_schedule_with` and, on
/// every slot, compares its pick with the eager reference and with a
/// fresh engine on an input whose weights are computed afresh instead of
/// handed over by the driver.
struct CheckedGhc {
    engine: HillClimbing,
    slots: usize,
    first_mismatch: Option<String>,
}

impl OneShotScheduler for CheckedGhc {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        let got = self.engine.schedule(input);
        let zero_gain = self.engine.admit_zero_gain;
        let want = eager_ghc(input, zero_gain);
        let bare = OneShotInput::new(input.deployment, input.coverage, input.graph, input.unread);
        let fresh = ghc(zero_gain).schedule(&bare);
        if (got != want || fresh != want) && self.first_mismatch.is_none() {
            self.first_mismatch = Some(format!(
                "slot {}: engine {got:?}, fresh engine {fresh:?}, eager {want:?}",
                self.slots
            ));
        }
        self.slots += 1;
        got
    }
}

/// Checks GHC against the eager reference on every slot of a covering
/// schedule of `d`, under both stop rules; returns the slots compared.
fn ghc_matches_eager_on_every_slot(d: &Deployment) -> Result<usize, TestCaseError> {
    let c = Coverage::build(d);
    let g = interference_graph(d);
    let mut compared = 0;
    for admit_zero_gain in [false, true] {
        let mut checked = CheckedGhc {
            engine: ghc(admit_zero_gain),
            slots: 0,
            first_mismatch: None,
        };
        covering_schedule_with(
            d,
            &c,
            &g,
            &mut checked,
            &McsOptions::new().max_slots(50_000),
        )
        .expect("strict covering schedule diverged");
        prop_assert!(
            checked.first_mismatch.is_none(),
            "admit_zero_gain = {}: {}",
            admit_zero_gain,
            checked.first_mismatch.unwrap()
        );
        compared += checked.slots;
    }
    Ok(compared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GHC's incremental gains and lazy heap pick exactly what the eager
    /// rescan picks, on every slot's residual unread set.
    #[test]
    fn ghc_matches_eager_reference_on_wild_radii(d in arb_wild_deployment()) {
        ghc_matches_eager_on_every_slot(&d)?;
    }

    /// As above at the paper's evaluation density (50 readers, 1200 tags).
    /// `λ_r` ranges up to `λ_R`'s top so that interrogation regions of
    /// independent readers overlap, the case where a tag's cover goes
    /// from 1 to 2 and other readers' gains rise.
    #[test]
    fn ghc_matches_eager_reference_at_paper_density(
        lambda_interference in 8.0..20.0f64,
        lambda_interrogation in 2.0..20.0f64,
        seed in 0u64..10_000,
    ) {
        let d = Scenario::paper_evaluation(lambda_interference, lambda_interrogation)
            .generate(seed);
        prop_assert!(ghc_matches_eager_on_every_slot(&d)? > 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `OneShotInput::new` computes exactly the singleton weights of a
    /// reference count taken from the geometry (`Deployment::covers`) on
    /// partly read sets, and lists exactly its positive readers.
    #[test]
    fn input_weights_match_the_evaluator(
        d in arb_wild_deployment(),
        read_tags in proptest::collection::vec(0usize..80, 0..60),
    ) {
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut unread = TagSet::all_unread(d.n_tags());
        for t in read_tags {
            unread.mark_read(t % d.n_tags());
        }
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let expect: Vec<usize> = (0..d.n_readers())
            .map(|v| (0..d.n_tags()).filter(|&t| d.covers(v, t) && unread.is_unread(t)).count())
            .collect();
        prop_assert_eq!(input.singleton_weights(), expect.as_slice());
        let positive: Vec<ReaderId> = (0..expect.len()).filter(|&v| expect[v] > 0).collect();
        prop_assert_eq!(input.positive_readers(), positive.as_slice());
    }

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
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let all: Vec<usize> = (0..d.n_readers()).collect();
        let best = exact_mwfs_restricted(&input, &all, &[]);
        let mut w = WeightEvaluator::new(&c);
        let best_w = w.weight(&best, &unread);
        let max_singleton = (0..d.n_readers())
            .map(|v| singleton_weight(&c, v, &unread))
            .max()
            .unwrap_or(0);
        prop_assert!(best_w >= max_singleton, "optimum at least the best singleton");
        let singleton_total: usize = (0..d.n_readers())
            .map(|v| singleton_weight(&c, v, &unread))
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
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut w = WeightEvaluator::new(&c);
        // base = heaviest reader alone
        let base_v = (0..d.n_readers())
            .max_by_key(|&v| singleton_weight(&c, v, &unread))
            .unwrap();
        let candidates: Vec<usize> = (0..d.n_readers()).filter(|&v| v != base_v).collect();
        let extra = exact_mwfs_restricted(&input, &candidates, &[base_v]);
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
