//! Planned reader placement.
//!
//! The paper situates itself against systems where "RFID readers are
//! assumed to be static and carefully deployed in a planned fashion"
//! (Zhou et al.). This module provides that planning step for downstream
//! users: given tag positions (a site survey of where goods accumulate)
//! and a reader budget, place readers to maximise tag coverage — the
//! classic greedy max-coverage algorithm with its `1 − 1/e` guarantee —
//! and compare with naive lattice placement.

use rfid_geometry::{GridIndex, Point, Rect};
use rfid_model::{Deployment, RadiusModel};

/// Greedy max-coverage placement: repeatedly place the next reader at the
/// candidate position covering the most still-uncovered tags.
///
/// Candidates are the tag positions themselves (a classical reduction —
/// an optimal disk centre can always be shifted to cover a same-or-larger
/// tag subset anchored on some tag, up to 2× radius; using tag anchors
/// keeps the search discrete and fast). Radii are drawn per reader from
/// `radius_model` with the given seed, matching the evaluation model.
///
/// Returns the planned [`Deployment`].
pub fn greedy_placement(
    region: Rect,
    tags: &[Point],
    n_readers: usize,
    radius_model: RadiusModel,
    seed: u64,
) -> Deployment {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    // Pre-draw radii so the placement sees each reader's actual reach.
    let radii: Vec<(f64, f64)> = (0..n_readers)
        .map(|_| radius_model.sample(&mut rng))
        .collect();

    let mut covered = vec![false; tags.len()];
    let index = GridIndex::build(tags, 8.0);
    let mut near = Vec::new();
    let mut positions = Vec::with_capacity(n_readers);
    for &(_, interrogation) in &radii {
        // Best anchor among tag positions (falls back to region centre
        // when no tags or no gain).
        let mut best: Option<(usize, Point)> = None;
        for &anchor in tags {
            near.clear();
            index.extend_within(anchor, interrogation, &mut near);
            let gain = near.iter().filter(|&&t| !covered[t as usize]).count();
            if gain > 0 && best.as_ref().is_none_or(|&(g, _)| gain > g) {
                best = Some((gain, anchor));
            }
        }
        let pos = best.map(|(_, p)| p).unwrap_or_else(|| region.center());
        near.clear();
        index.extend_within(pos, interrogation, &mut near);
        for &t in &near {
            covered[t as usize] = true;
        }
        positions.push(pos);
    }
    let (big, small): (Vec<f64>, Vec<f64>) = radii.into_iter().unzip();
    Deployment::new(region, positions, big, small, tags.to_vec())
}

/// Fraction of tags covered by at least one reader of `d`.
pub fn coverage_fraction(d: &Deployment) -> f64 {
    if d.n_tags() == 0 {
        return 1.0;
    }
    let covered = rfid_model::Coverage::build(d).coverable_count();
    covered as f64 / d.n_tags() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rfid_geometry::sampling::{clustered_points, uniform_points};

    #[test]
    fn greedy_covers_clustered_tags_with_few_readers() {
        let region = Rect::square(100.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let centers = uniform_points(&mut rng, 4, region);
        let tags = clustered_points(&mut rng, 300, region, &centers, 3.0);
        let planned = greedy_placement(
            region,
            &tags,
            4,
            RadiusModel::Fixed {
                interference: 15.0,
                interrogation: 10.0,
            },
            7,
        );
        assert!(
            coverage_fraction(&planned) > 0.95,
            "4 readers on 4 clusters should cover nearly everything, got {}",
            coverage_fraction(&planned)
        );
    }

    #[test]
    fn greedy_beats_lattice_on_clustered_tags() {
        use rfid_model::{Scenario, ScenarioKind};
        let region = Rect::square(100.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let centers = uniform_points(&mut rng, 3, region);
        let tags = clustered_points(&mut rng, 300, region, &centers, 4.0);
        let model = RadiusModel::Fixed {
            interference: 12.0,
            interrogation: 8.0,
        };
        let planned = greedy_placement(region, &tags, 6, model, 3);
        // Lattice baseline with the same radii and tag set.
        let lattice = {
            let base = Scenario {
                kind: ScenarioKind::LatticeReaders,
                n_readers: 6,
                n_tags: 0,
                region_side: 100.0,
                radius_model: model,
            }
            .generate(3);
            Deployment::new(
                region,
                base.reader_positions().to_vec(),
                base.interference_radii().to_vec(),
                base.interrogation_radii().to_vec(),
                tags.clone(),
            )
        };
        assert!(
            coverage_fraction(&planned) > coverage_fraction(&lattice),
            "planned {} should beat lattice {}",
            coverage_fraction(&planned),
            coverage_fraction(&lattice)
        );
    }

    #[test]
    fn no_tags_still_places_all_readers() {
        let region = Rect::square(50.0);
        let d = greedy_placement(
            region,
            &[],
            3,
            RadiusModel::Fixed {
                interference: 5.0,
                interrogation: 3.0,
            },
            0,
        );
        assert_eq!(d.n_readers(), 3);
        assert_eq!(coverage_fraction(&d), 1.0); // vacuous
    }

    #[test]
    fn placement_is_deterministic() {
        let region = Rect::square(80.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let tags = uniform_points(&mut rng, 100, region);
        let m = RadiusModel::PoissonPair {
            lambda_interference: 12.0,
            lambda_interrogation: 6.0,
        };
        let a = greedy_placement(region, &tags, 8, m, 11);
        let b = greedy_placement(region, &tags, 8, m, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn more_readers_never_reduce_coverage() {
        let region = Rect::square(100.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let tags = uniform_points(&mut rng, 200, region);
        let m = RadiusModel::Fixed {
            interference: 10.0,
            interrogation: 6.0,
        };
        let mut prev = 0.0;
        for k in [2usize, 4, 8, 16] {
            let frac = coverage_fraction(&greedy_placement(region, &tags, k, m, 1));
            assert!(
                frac + 1e-12 >= prev,
                "coverage dropped {prev} → {frac} at k={k}"
            );
            prev = frac;
        }
    }
}
