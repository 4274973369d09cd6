//! Mobile-reader simulation — the dynamism the paper motivates its
//! location-free algorithms with.
//!
//! "In a more realistic model, the position of each reader is often highly
//! dynamic and we can not expect that their exact geometry location can
//! always be obtained." (Section I.) Handheld or forklift-mounted readers
//! move; the interference graph drifts every epoch, but the graph-only
//! algorithms (2 and 3) need nothing beyond a fresh neighbourhood probe,
//! while Algorithm 1 would require a full RF re-survey of coordinates.
//!
//! The simulation runs in *epochs*: readers move under a mobility model,
//! the derived structures (interference graph, coverage) are rebuilt, the
//! scheduler is invoked for a fixed number of slots, and served tags leave
//! the system. The report tracks per-epoch service and how quickly the
//! deployment drains.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_core::{OneShotInput, OneShotScheduler};
use rfid_delta::ScenarioDelta;
use rfid_geometry::{Point, Rect};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Deployment, TagSet, WeightEvaluator};
use serde::{Deserialize, Serialize};

/// How readers move between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MobilityModel {
    /// Independent Gaussian jitter per epoch (σ in region units), clamped
    /// to the region. Models forklift-style local movement.
    RandomWalk {
        /// Standard deviation of the per-epoch displacement.
        sigma: f64,
    },
    /// Classic random waypoint: each reader moves toward a private target
    /// at `speed` units per epoch; on arrival it draws a new target.
    RandomWaypoint {
        /// Distance travelled per epoch.
        speed: f64,
    },
}

/// One epoch's outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Tags served in this epoch (across its slots).
    pub served: usize,
    /// Interference-graph edges after the move.
    pub edges: usize,
    /// Slots actually used (≤ `slots_per_epoch`; fewer when drained).
    pub slots_used: usize,
}

/// Full mobile run outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MobilityReport {
    /// Per-epoch records in simulation order.
    pub epochs: Vec<EpochRecord>,
    /// Tags served over the whole run.
    pub total_served: usize,
    /// Coverable-at-some-point tags still unread when the run ended.
    pub remaining_unread: usize,
}

/// Epoch-based simulation of a deployment with mobile readers and static
/// tags.
pub struct MobilitySim {
    /// Initial deployment (positions are the epoch-0 reader locations).
    pub initial: Deployment,
    /// How readers move between epochs.
    pub model: MobilityModel,
    /// Scheduler invocations per epoch before readers move again.
    pub slots_per_epoch: usize,
    /// Hard cap on simulated epochs.
    pub max_epochs: usize,
    /// RNG seed for movement.
    pub seed: u64,
}

impl MobilitySim {
    /// Runs the simulation with the given one-shot scheduler.
    pub fn run(&self, scheduler: &mut dyn OneShotScheduler) -> MobilityReport {
        assert!(self.slots_per_epoch >= 1 && self.max_epochs >= 1);
        let region = self.initial.region();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut positions: Vec<Point> = self.initial.reader_positions().to_vec();
        let mut waypoints: Vec<Point> = positions.clone();
        let mut unread = TagSet::all_unread(self.initial.n_tags());
        let mut epochs = Vec::new();
        let mut total_served = 0usize;
        for _ in 0..self.max_epochs {
            if unread.remaining() == 0 {
                break;
            }
            // Rebuild the world at the current positions.
            let d = Deployment::new(
                region,
                positions.clone(),
                self.initial.interference_radii().to_vec(),
                self.initial.interrogation_radii().to_vec(),
                self.initial.tag_positions().to_vec(),
            );
            let coverage = Coverage::build(&d);
            let graph = interference_graph(&d);
            let mut weights = WeightEvaluator::new(&coverage);
            let mut served_this_epoch = 0usize;
            let mut slots_used = 0usize;
            for _ in 0..self.slots_per_epoch {
                let input = OneShotInput::new(&d, &coverage, &graph, &unread);
                let active = scheduler.schedule(&input);
                debug_assert!(d.is_feasible(&active));
                let served = weights.well_covered(&active, &unread);
                if served.is_empty() {
                    break; // nothing reachable this epoch — move on
                }
                slots_used += 1;
                served_this_epoch += served.len();
                unread.mark_all_read(&served);
            }
            total_served += served_this_epoch;
            epochs.push(EpochRecord {
                served: served_this_epoch,
                edges: graph.m(),
                slots_used,
            });
            // Move readers for the next epoch.
            self.advance(&mut rng, region, &mut positions, &mut waypoints);
        }
        MobilityReport {
            epochs,
            total_served,
            remaining_unread: unread.remaining(),
        }
    }

    /// The first `epochs` epoch transitions as [`ScenarioDelta`]
    /// streams: element `e` holds the `MoveReader` ops that turn the
    /// epoch-`e` deployment into the epoch-`e+1` one (readers that did
    /// not move emit nothing). The movement RNG is dedicated and seeded
    /// from `self.seed` exactly as in [`run`](MobilitySim::run), so
    /// folding the stream over `initial` with
    /// [`rfid_delta::apply_ops`] reproduces the precise reader
    /// trajectories the simulation schedules against — a serve client
    /// can follow a mobile deployment with one delta frame per epoch.
    pub fn delta_stream(&self, epochs: usize) -> Vec<Vec<ScenarioDelta>> {
        let region = self.initial.region();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut positions = self.initial.reader_positions().to_vec();
        let mut waypoints = positions.clone();
        let mut stream = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let before = positions.clone();
            self.advance(&mut rng, region, &mut positions, &mut waypoints);
            stream.push(
                positions
                    .iter()
                    .enumerate()
                    .filter(|&(i, p)| *p != before[i])
                    .map(|(i, p)| ScenarioDelta::MoveReader {
                        reader: i as u32,
                        x: p.x,
                        y: p.y,
                    })
                    .collect(),
            );
        }
        stream
    }

    fn advance(
        &self,
        rng: &mut ChaCha8Rng,
        region: Rect,
        positions: &mut [Point],
        waypoints: &mut [Point],
    ) {
        match self.model {
            MobilityModel::RandomWalk { sigma } => {
                assert!(sigma >= 0.0);
                for p in positions.iter_mut() {
                    // Box–Muller via two uniforms.
                    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                    let u2: f64 = rng.random();
                    let r = (-2.0 * u1.ln()).sqrt();
                    let (dx, dy) = (
                        r * (std::f64::consts::TAU * u2).cos() * sigma,
                        r * (std::f64::consts::TAU * u2).sin() * sigma,
                    );
                    p.x = (p.x + dx).clamp(region.min_x, region.max_x);
                    p.y = (p.y + dy).clamp(region.min_y, region.max_y);
                }
            }
            MobilityModel::RandomWaypoint { speed } => {
                assert!(speed >= 0.0);
                for (p, w) in positions.iter_mut().zip(waypoints.iter_mut()) {
                    let to = *w - *p;
                    let dist = to.len();
                    if dist <= speed {
                        *p = *w;
                        *w = Point::new(
                            region.min_x + rng.random::<f64>() * region.width(),
                            region.min_y + rng.random::<f64>() * region.height(),
                        );
                    } else if let Some(dir) = to.normalized() {
                        *p = *p + dir * speed;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_core::{make_scheduler, AlgorithmKind};
    use rfid_model::{RadiusModel, Scenario, ScenarioKind};

    fn sparse_scenario(seed: u64) -> Deployment {
        // Few short-range readers: static scheduling strands far tags,
        // mobility rescues them.
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 8,
            n_tags: 150,
            region_side: 100.0,
            radius_model: RadiusModel::Fixed {
                interference: 12.0,
                interrogation: 8.0,
            },
        }
        .generate(seed)
    }

    fn sim(model: MobilityModel, seed: u64) -> MobilitySim {
        MobilitySim {
            initial: sparse_scenario(seed),
            model,
            slots_per_epoch: 2,
            max_epochs: 120,
            seed,
        }
    }

    #[test]
    fn mobility_serves_more_than_static_coverage() {
        let s = sim(MobilityModel::RandomWaypoint { speed: 10.0 }, 3);
        let static_coverable = Coverage::build(&s.initial).coverable_count();
        let mut scheduler = make_scheduler(AlgorithmKind::LocalGreedy, 0);
        let report = s.run(scheduler.as_mut());
        assert!(
            report.total_served > static_coverable,
            "mobility should reach beyond the static footprint ({} vs {static_coverable})",
            report.total_served
        );
    }

    #[test]
    fn walk_eventually_drains_most_tags() {
        let s = sim(MobilityModel::RandomWalk { sigma: 6.0 }, 5);
        let mut scheduler = make_scheduler(AlgorithmKind::HillClimbing, 0);
        let report = s.run(scheduler.as_mut());
        let total = s.initial.n_tags();
        assert!(
            report.total_served * 10 >= total * 8,
            "random walk should reach ≥80% of tags ({}/{total})",
            report.total_served
        );
        assert_eq!(report.total_served + report.remaining_unread, total);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let s = sim(MobilityModel::RandomWaypoint { speed: 8.0 }, 9);
            let mut scheduler = make_scheduler(AlgorithmKind::LocalGreedy, 1);
            s.run(scheduler.as_mut())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_speed_equals_static() {
        let s = sim(MobilityModel::RandomWaypoint { speed: 0.0 }, 2);
        let static_coverable = Coverage::build(&s.initial).coverable_count();
        let mut scheduler = make_scheduler(AlgorithmKind::LocalGreedy, 0);
        let report = s.run(scheduler.as_mut());
        assert_eq!(report.total_served, static_coverable);
    }

    #[test]
    fn delta_stream_reproduces_the_reader_trajectory() {
        let s = sim(MobilityModel::RandomWaypoint { speed: 9.0 }, 11);
        let epochs = 6;
        let stream = s.delta_stream(epochs);
        assert_eq!(stream.len(), epochs);
        assert!(stream
            .iter()
            .flatten()
            .all(|op| matches!(op, ScenarioDelta::MoveReader { .. })));

        // Replay the movement directly (same dedicated RNG) and check
        // that folding each epoch's ops with the real delta engine
        // lands every reader on the identical position.
        let region = s.initial.region();
        let mut rng = ChaCha8Rng::seed_from_u64(s.seed);
        let mut positions = s.initial.reader_positions().to_vec();
        let mut waypoints = positions.clone();
        let mut current = s.initial.clone();
        for ops in &stream {
            s.advance(&mut rng, region, &mut positions, &mut waypoints);
            current = rfid_delta::apply_ops(&current, ops)
                .expect("stream ops are in range")
                .deployment;
            assert_eq!(current.reader_positions(), positions.as_slice());
        }
        assert!(
            stream.iter().any(|ops| !ops.is_empty()),
            "waypoint motion at speed 9 must move someone"
        );
        // Tags never move in this model.
        assert_eq!(current.tag_positions(), s.initial.tag_positions());
    }

    #[test]
    fn zero_speed_stream_is_all_empty() {
        let s = sim(MobilityModel::RandomWaypoint { speed: 0.0 }, 4);
        assert!(s.delta_stream(8).iter().all(Vec::is_empty));
    }

    #[test]
    fn epoch_accounting_is_consistent() {
        let s = sim(MobilityModel::RandomWalk { sigma: 4.0 }, 7);
        let mut scheduler = make_scheduler(AlgorithmKind::HillClimbing, 0);
        let report = s.run(scheduler.as_mut());
        let per_epoch: usize = report.epochs.iter().map(|e| e.served).sum();
        assert_eq!(per_epoch, report.total_served);
        assert!(report.epochs.len() <= 120);
        for e in &report.epochs {
            assert!(e.slots_used <= 2);
        }
    }
}
