//! Property-based tests for the RFID domain model.

use proptest::prelude::*;
use rfid_geometry::{Point, Rect};
use rfid_model::interference::{interference_graph, interference_graph_naive};
use rfid_model::{
    all_singleton_weights, audit_activation, singleton_weight, Coverage, Deployment,
    IncrementalCore, RadiusModel, Scenario, ScenarioKind, TagSet, WeightEvaluator,
};

/// Arbitrary valid deployment (readers + tags in a 100×100 region).
fn arb_deployment() -> impl Strategy<Value = Deployment> {
    let reader = (0.0..100.0f64, 0.0..100.0f64, 1.0..25.0f64, 0.05..1.0f64);
    let tag = (0.0..100.0f64, 0.0..100.0f64);
    (
        proptest::collection::vec(reader, 1..25),
        proptest::collection::vec(tag, 0..120),
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
            let tag_pos = tags.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            Deployment::new(Rect::square(100.0), pos, big, small, tag_pos)
        })
}

/// Adversarial geometry for the grid-backed builders. Readers and tags
/// sit on an integer lattice with integer radii, so many tags lie exactly
/// on interrogation circles and on grid-cell edges (every distance² is an
/// exact integer). The lattice is moved to an offset, possibly negative
/// origin; `family` puts every point in one row (1) or kills every reader
/// (2, zero radii); `scale` multiplies every radius by 2^-40 … 2^40, far
/// below or above the lattice spread, and keeps distances exact.
fn arb_lattice_deployment() -> impl Strategy<Value = Deployment> {
    let reader = (0i32..16, 0i32..16, 0u32..9, 0u32..9);
    let tag = (0i32..16, 0i32..16);
    // Half the cases keep the lattice at the origin.
    let origin = (0u8..2, -2_000_000i64..2_000_000).prop_map(|(k, o)| if k == 0 { 0 } else { o });
    const SCALES: [i32; 7] = [-40, -12, 0, 0, 0, 12, 40];
    (
        proptest::collection::vec(reader, 1..24),
        proptest::collection::vec(tag, 0..96),
        (origin.clone(), origin),
        0u8..3,
        0..SCALES.len(),
    )
        .prop_map(|(readers, tags, (ox, oy), family, scale)| {
            let at = |x: i32, y: i32| {
                let y = if family == 1 { 0 } else { y };
                Point::new((ox + i64::from(x)) as f64, (oy + i64::from(y)) as f64)
            };
            let scale = 2f64.powi(SCALES[scale]);
            let mut pos = Vec::new();
            let mut big = Vec::new();
            let mut small = Vec::new();
            for (x, y, a, b) in readers {
                let p = at(x, y);
                let (a, b) = if family == 2 { (0, 0) } else { (a, b) };
                pos.push(p);
                big.push(f64::from(a.max(b)) * scale);
                small.push(f64::from(a.min(b)) * scale);
            }
            let tag_pos = tags.into_iter().map(|(x, y)| at(x, y)).collect();
            Deployment::new(Rect::square(16.0), pos, big, small, tag_pos)
        })
}

/// `m` tags with every `read[i] % m` marked read.
fn partly_read(m: usize, read: &[usize]) -> TagSet {
    let mut unread = TagSet::all_unread(m);
    if m > 0 {
        for &t in read {
            unread.mark_read(t % m);
        }
    }
    unread
}

fn arb_subset(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..n, 0..n.min(12)).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interference_graph_fast_equals_naive(d in arb_deployment()) {
        prop_assert_eq!(interference_graph(&d), interference_graph_naive(&d));
    }

    #[test]
    fn interference_edges_iff_not_independent(d in arb_deployment()) {
        let g = interference_graph(&d);
        for i in 0..d.n_readers() {
            for j in (i + 1)..d.n_readers() {
                prop_assert_eq!(g.has_edge(i, j), !d.independent(i, j));
            }
        }
    }

    #[test]
    fn grid_builders_equal_brute_force_on_lattices(d in arb_lattice_deployment()) {
        let c = Coverage::build(&d);
        for t in 0..d.n_tags() {
            let readers: Vec<u32> = (0..d.n_readers())
                .filter(|&i| d.covers(i, t))
                .map(|i| i as u32)
                .collect();
            prop_assert_eq!(c.readers_of(t), readers.as_slice(), "tag {}", t);
        }
        for i in 0..d.n_readers() {
            let tags: Vec<u32> = (0..d.n_tags())
                .filter(|&t| d.covers(i, t))
                .map(|t| t as u32)
                .collect();
            prop_assert_eq!(c.tags_of(i), tags.as_slice(), "reader {}", i);
        }
        prop_assert_eq!(interference_graph(&d), interference_graph_naive(&d));
    }

    #[test]
    fn coverage_is_consistent_both_ways(d in arb_deployment()) {
        let c = Coverage::build(&d);
        for t in 0..d.n_tags() {
            for &i in c.readers_of(t) {
                prop_assert!(d.covers(i as usize, t));
                prop_assert!(c.tags_of(i as usize).contains(&(t as u32)));
            }
        }
        for i in 0..d.n_readers() {
            for &t in c.tags_of(i) {
                prop_assert!(d.covers(i, t as usize));
            }
        }
    }

    /// The singleton function equals a count taken from the geometry
    /// (`Deployment::covers`) on partly read sets, and bounds the batch
    /// weight from above the way sub-additivity says it must.
    #[test]
    fn weight_bounds(
        d in arb_deployment(),
        seed in 0u64..100,
        read_tags in proptest::collection::vec(0usize..120, 0..80),
    ) {
        let c = Coverage::build(&d);
        let unread = partly_read(d.n_tags(), &read_tags);
        let mut w = WeightEvaluator::new(&c);
        let set: Vec<usize> = (0..d.n_readers()).filter(|v| (v * 7 + seed as usize).is_multiple_of(3)).collect();
        let weight = w.weight(&set, &unread);
        prop_assert!(weight <= unread.remaining());
        let singletons = all_singleton_weights(&c, &unread);
        prop_assert_eq!(singletons.len(), d.n_readers());
        for (v, &all_form) in singletons.iter().enumerate() {
            let covered = (0..d.n_tags())
                .filter(|&t| d.covers(v, t) && unread.is_unread(t))
                .count();
            prop_assert_eq!(singleton_weight(&c, v, &unread), covered, "reader {}", v);
            prop_assert_eq!(all_form, covered, "reader {}", v);
        }
        let singleton_sum: usize = set.iter().map(|&v| singletons[v]).sum();
        prop_assert!(weight <= singleton_sum);
    }

    /// The incremental engine against the batch evaluator on random
    /// add/remove walks over partly read sets: the running weight, every
    /// peeked add-delta, and the reports of `add_reporting`, which summed
    /// onto each reader's delta before the add must give its delta after.
    #[test]
    fn incremental_matches_batch_on_random_walks(
        d in arb_deployment(),
        ops in proptest::collection::vec((0usize..25, proptest::bool::ANY), 1..40),
        read_tags in proptest::collection::vec(0usize..120, 0..80),
    ) {
        let c = Coverage::build(&d);
        let n = d.n_readers();
        let unread = partly_read(d.n_tags(), &read_tags);
        let mut inc = IncrementalCore::new();
        inc.reset(&c, &unread);
        let mut batch = WeightEvaluator::new(&c);
        let mut active: Vec<usize> = Vec::new();
        for (vr, add) in ops {
            let v = vr % n;
            if add && !inc.is_active(v) {
                let before = batch.weight(&active, &unread) as isize;
                active.push(v);
                let after = batch.weight(&active, &unread) as isize;
                prop_assert_eq!(inc.delta_if_added(&c, v), after - before, "peek {}", v);
                let deltas: Vec<Option<isize>> = (0..n)
                    .map(|u| (u != v && !inc.is_active(u)).then(|| inc.delta_if_added(&c, u)))
                    .collect();
                let mut reported = vec![0isize; n];
                prop_assert_eq!(
                    inc.add_reporting(&c, v, |u, change| reported[u] += change),
                    after - before
                );
                for u in 0..n {
                    if let Some(delta) = deltas[u] {
                        prop_assert_eq!(
                            delta + reported[u],
                            inc.delta_if_added(&c, u),
                            "reader {} after adding {}", u, v
                        );
                    }
                }
            } else if !add && inc.is_active(v) {
                inc.remove(&c, v);
                active.retain(|&x| x != v);
            }
            prop_assert_eq!(inc.weight(), batch.weight(&active, &unread));
        }
    }

    #[test]
    fn audit_agrees_with_fast_path_on_feasible_sets(d in arb_deployment(), pick in arb_subset(25)) {
        let set: Vec<usize> = pick.into_iter().filter(|&v| v < d.n_readers()).collect();
        if !d.is_feasible(&set) {
            return Ok(());
        }
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let audit = audit_activation(&d, &c, &set, &unread);
        prop_assert!(audit.is_feasible());
        let mut w = WeightEvaluator::new(&c);
        prop_assert_eq!(audit.well_covered, w.well_covered(&set, &unread));
    }

    #[test]
    fn audit_well_covered_never_exceeds_fast_count(d in arb_deployment(), pick in arb_subset(25)) {
        // For *infeasible* sets jamming can only reduce the well-covered
        // tags below the exactly-once-covered count.
        let set: Vec<usize> = pick.into_iter().filter(|&v| v < d.n_readers()).collect();
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let audit = audit_activation(&d, &c, &set, &unread);
        let mut w = WeightEvaluator::new(&c);
        prop_assert!(audit.well_covered.len() <= w.weight(&set, &unread));
    }

    #[test]
    fn scenarios_generate_valid_deployments(
        n_readers in 1usize..40,
        n_tags in 0usize..200,
        lambda_big in 1.0..25.0f64,
        lambda_small in 1.0..25.0f64,
        seed in 0u64..50,
    ) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers,
            n_tags,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: lambda_big,
                lambda_interrogation: lambda_small,
            },
        }
        .generate(seed);
        prop_assert_eq!(d.n_readers(), n_readers);
        prop_assert_eq!(d.n_tags(), n_tags);
        for i in 0..n_readers {
            let r = d.reader(i);
            prop_assert!(r.interrogation_radius >= 1.0);
            prop_assert!(r.interrogation_radius <= r.interference_radius);
        }
    }

    #[test]
    fn tagset_bookkeeping(m in 0usize..200, reads in proptest::collection::vec(0usize..200, 0..300)) {
        let mut s = TagSet::all_unread(m);
        let mut reference = std::collections::BTreeSet::new();
        for t in reads {
            if t < m {
                s.mark_read(t);
                reference.insert(t);
            }
        }
        prop_assert_eq!(s.remaining(), m - reference.len());
        let unread: Vec<usize> = s.iter_unread().collect();
        prop_assert!(unread.iter().all(|t| !reference.contains(t)));
        prop_assert_eq!(unread.len() + reference.len(), m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paper's growth-bounded premise, verified empirically: on disk
    /// interference graphs the ball independence number grows at most
    /// quadratically in the radius (unit-disk-style packing), which is
    /// what Theorems 3/5 need.
    #[test]
    fn interference_graphs_are_growth_bounded(seed in 0u64..60) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 35,
            n_tags: 0,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 16.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed);
        let g = interference_graph(&d);
        let f = rfid_graph::growth_function(&g, 3);
        for (r, &fr) in f.iter().enumerate() {
            // Radii within a Poisson class differ by small constant factors;
            // generous packing constant 12 per (r+1)² captures that.
            let bound = 12 * (r + 1) * (r + 1);
            prop_assert!(fr <= bound, "f({r}) = {fr} > {bound}");
        }
        // monotone in r
        prop_assert!(f.windows(2).all(|w| w[0] <= w[1]));
    }
}
