//! Cross-validation of the approximate schedulers against the exact
//! branch-and-bound optimum, plus property-based model invariants.

use proptest::prelude::*;
use rfid_core::{AlgorithmKind, ExactScheduler, OneShotInput, OneShotScheduler, SchedulerRegistry};
use rfid_integration_tests::scenario;
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, TagSet, WeightEvaluator};

/// No scheduler may beat the exact optimum, and the paper's guaranteed
/// algorithms must stay within their proven factors.
#[test]
fn approximation_guarantees_hold_on_small_instances() {
    for seed in 0..6u64 {
        let d = scenario(12, 200, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let registry = SchedulerRegistry::global();
        let opt = input.weight_of(&ExactScheduler::default().schedule(&input)) as f64;
        for kind in AlgorithmKind::paper_lineup() {
            let label = kind.label();
            let w = input.weight_of(&registry.instantiate(kind, seed).schedule(&input)) as f64;
            assert!(
                w <= opt + 1e-9,
                "{label} seed {seed}: {w} beats optimum {opt}"
            );
            let factor = match kind {
                AlgorithmKind::Ptas => (1.0 - 1.0 / 4.0f64).powi(2), // k = 4 default
                AlgorithmKind::LocalGreedy | AlgorithmKind::Distributed => 1.0 / 1.1, // ρ default
                _ => 0.0,                                            // baselines carry no guarantee
            };
            assert!(
                w + 1e-9 >= factor * opt,
                "{label} seed {seed}: {w} < {factor}·{opt}"
            );
        }
    }
}

/// Algorithm 2 and Algorithm 3 share their growth rule; with identical
/// parameters they usually coincide, and must always be within each
/// other's ρ factor of the optimum. Check mutual closeness loosely.
#[test]
fn centralized_and_distributed_are_close() {
    for seed in 0..4u64 {
        let d = scenario(30, 500, 14.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let registry = SchedulerRegistry::global();
        let w2 = input.weight_of(
            &registry
                .instantiate(AlgorithmKind::LocalGreedy, 0)
                .schedule(&input),
        );
        let w3 = input.weight_of(
            &registry
                .instantiate(AlgorithmKind::Distributed, 0)
                .schedule(&input),
        );
        let lo = (w2.min(w3)) as f64;
        let hi = (w2.max(w3)) as f64;
        assert!(
            lo >= 0.8 * hi,
            "seed {seed}: centralized {w2} vs distributed {w3}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// w is sub-additive: w(A ∪ B) ≤ w(A) + w(B) for disjoint A, B.
    #[test]
    fn weight_is_subadditive(seed in 0u64..500, split in 1usize..9) {
        let d = scenario(10, 150, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let mut w = WeightEvaluator::new(&c);
        let a: Vec<usize> = (0..split).collect();
        let b: Vec<usize> = (split..10).collect();
        let ab: Vec<usize> = (0..10).collect();
        prop_assert!(w.weight(&ab, &unread) <= w.weight(&a, &unread) + w.weight(&b, &unread));
    }

    /// Weight is monotone in the unread set: marking tags read never
    /// increases any set's weight.
    #[test]
    fn weight_monotone_under_reads(seed in 0u64..500, kill in 0usize..100) {
        let d = scenario(10, 120, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let set: Vec<usize> = (0..10).collect();
        let mut w = WeightEvaluator::new(&c);
        let mut unread = TagSet::all_unread(d.n_tags());
        let before = w.weight(&set, &unread);
        for t in 0..kill.min(d.n_tags()) {
            unread.mark_read(t);
        }
        prop_assert!(w.weight(&set, &unread) <= before);
    }

    /// Every scheduler's one-shot output is feasible on arbitrary random
    /// deployments (the core contract).
    #[test]
    fn all_schedulers_feasible(seed in 0u64..200) {
        let d = scenario(18, 200, 13.0, 7.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let registry = SchedulerRegistry::global();
        for entry in registry.entries() {
            if entry.kind == AlgorithmKind::Exact {
                continue; // exponential; covered by the dedicated tests
            }
            let set = registry.instantiate(entry.kind, seed).schedule(&input);
            prop_assert!(d.is_feasible(&set), "{}", entry.kind.label());
        }
    }

    /// Adding any reader to an exact optimum never increases weight
    /// (local optimality of the exact solver).
    #[test]
    fn exact_solution_is_locally_optimal(seed in 0u64..100) {
        let d = scenario(10, 150, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let opt_set = ExactScheduler::default().schedule(&input);
        let opt_w = input.weight_of(&opt_set);
        let mut w = WeightEvaluator::new(&c);
        for v in 0..d.n_readers() {
            if opt_set.contains(&v) {
                continue;
            }
            let mut bigger = opt_set.clone();
            bigger.push(v);
            if d.is_feasible(&bigger) {
                prop_assert!(w.weight(&bigger, &unread) <= opt_w);
            }
        }
    }
}
