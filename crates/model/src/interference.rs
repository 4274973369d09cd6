//! Interference-graph construction (paper Definition 7).
//!
//! "Every reader in `V` has a corresponding node, and any two nodes have an
//! edge between each other if and only if one reader is located in the
//! interference region of the other" — equivalently, iff the pair is *not*
//! independent: `‖v_i − v_j‖ ≤ max(R_i, R_j)`.
//!
//! Construction uses the uniform-grid index over reader positions so a
//! deployment with bounded radii builds in expected `O(n + |E|)` rather than
//! `O(n²)`; the grid keeps its bucket count within `n` whatever the radii
//! and spread.

use crate::deployment::Deployment;
use rfid_geometry::GridIndex;
use rfid_graph::Csr;

/// Builds the interference graph of a deployment.
pub fn interference_graph(d: &Deployment) -> Csr {
    let n = d.n_readers();
    let r_max = d.max_interference_radius();
    // The edge predicate needs dist ≤ max(R_i, R_j) ≤ r_max, so querying
    // every reader's ball of radius r_max and filtering with `independent`
    // is exact — also when every radius is zero, where only coincident
    // readers are linked.
    let index = GridIndex::build(d.reader_positions(), r_max);
    let mut edges = Vec::new();
    let mut near = Vec::new();
    for i in 0..n {
        near.clear();
        index.extend_within(d.reader_positions()[i], r_max, &mut near);
        for &j in &near {
            let j = j as usize;
            if i < j && !d.independent(i, j) {
                edges.push((i, j));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

/// Quadratic reference construction, for tests and tiny instances.
pub fn interference_graph_naive(d: &Deployment) -> Csr {
    Csr::from_predicate(d.n_readers(), |i, j| !d.independent(i, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radii::RadiusModel;
    use crate::scenario::{Scenario, ScenarioKind};
    use rfid_geometry::{Point, Rect};

    #[test]
    fn empty_deployment() {
        let d = Deployment::new(Rect::square(1.0), vec![], vec![], vec![], vec![]);
        let g = interference_graph(&d);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn asymmetric_interference_creates_edge() {
        // Big reader 0 jams far-away reader 1 even though 1 cannot jam 0.
        let d = Deployment::new(
            Rect::square(100.0),
            vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)],
            vec![10.0, 1.0],
            vec![1.0, 1.0],
            vec![],
        );
        let g = interference_graph(&d);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn independent_pair_has_no_edge() {
        let d = Deployment::new(
            Rect::square(100.0),
            vec![Point::new(0.0, 0.0), Point::new(11.0, 0.0)],
            vec![10.0, 1.0],
            vec![1.0, 1.0],
            vec![],
        );
        let g = interference_graph(&d);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn boundary_distance_is_an_edge() {
        let d = Deployment::new(
            Rect::square(100.0),
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![10.0, 2.0],
            vec![1.0, 1.0],
            vec![],
        );
        assert!(interference_graph(&d).has_edge(0, 1));
    }

    #[test]
    fn zero_radii_link_only_coincident_readers() {
        // `independent` needs distance > max(R_i, R_j) = 0: two dead
        // readers at one spot conflict, a third one elsewhere does not.
        let d = Deployment::new(
            Rect::square(10.0),
            vec![
                Point::new(1.0, 1.0),
                Point::new(1.0, 1.0),
                Point::new(4.0, 1.0),
            ],
            vec![0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![],
        );
        let g = interference_graph(&d);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.m(), 1);
        assert_eq!(g, interference_graph_naive(&d));
    }

    #[test]
    fn fast_matches_naive_on_random_deployments() {
        for seed in 0..6u64 {
            let d = Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 40,
                n_tags: 50,
                region_side: 100.0,
                radius_model: RadiusModel::PoissonPair {
                    lambda_interference: 12.0,
                    lambda_interrogation: 5.0,
                },
            }
            .generate(seed);
            assert_eq!(
                interference_graph(&d),
                interference_graph_naive(&d),
                "seed {seed}"
            );
        }
    }
}
