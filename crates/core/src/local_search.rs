//! Swap-based local search post-optimisation.
//!
//! Any feasible scheduling set can be polished: repeatedly try to
//! (a) add a reader with positive marginal weight, (b) drop a reader whose
//! removal raises the weight (it was eating its neighbours' overlap), or
//! (c) swap one active reader for an inactive one when the exchange gains.
//! Each accepted move strictly increases `w(X)`, so termination is
//! immediate (`w ≤ m`); the result is 1-add/1-drop/1-swap optimal.
//!
//! This is *not* one of the paper's algorithms, and no scheduler runs it
//! on its own output: it is the ablation knife used to measure how far
//! each scheduler's output sits from local optimality
//! (`results/ablation.md`), exported as [`improve_schedule`] for callers
//! who can spare the extra milliseconds.

use crate::scheduler::OneShotInput;
use rfid_model::{IncrementalCore, ReaderId};
use rfid_obs::{counter, span};
use std::cmp::Reverse;

/// Outcome of a local-search pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImprovementReport {
    /// The improved feasible set, sorted.
    pub set: Vec<ReaderId>,
    /// Weight before optimisation.
    pub initial_weight: usize,
    /// Weight after optimisation.
    pub final_weight: usize,
    /// Accepted moves, in order: `+v`, `−v`, or `swap out→in` encoded as
    /// (kind, out, in) with `usize::MAX` for the unused side.
    pub moves: usize,
}

/// Runs add/drop/swap local search from `start` (which must be feasible).
///
/// Deterministic: candidate moves are scanned in id order and the first
/// strictly-improving one is taken (first-improvement strategy — on these
/// weights it converges in a handful of passes).
pub fn improve_schedule(input: &OneShotInput<'_>, start: &[ReaderId]) -> ImprovementReport {
    debug_assert!(
        input.deployment.is_feasible(start),
        "local search needs a feasible start"
    );
    let sub = input.subscriber;
    let _span = span!(sub, "local_search.improve");
    let n = input.deployment.n_readers();
    let (graph, coverage) = (input.graph, input.coverage);
    let mut inc = IncrementalCore::new();
    inc.reset(coverage, input.unread);
    let mut conflicts = vec![0usize; n]; // active neighbours per reader
    for &v in start {
        inc.add(coverage, v);
        for &t in graph.neighbors(v) {
            conflicts[t as usize] += 1;
        }
    }
    let initial_weight = inc.weight();
    let mut moves = 0usize;
    loop {
        let mut improved = false;
        // (a) add
        for v in 0..n {
            if !inc.is_active(v) && conflicts[v] == 0 && inc.delta_if_added(coverage, v) > 0 {
                inc.add(coverage, v);
                for &t in graph.neighbors(v) {
                    conflicts[t as usize] += 1;
                }
                moves += 1;
                improved = true;
            }
        }
        // (b) drop: removal with positive delta means the reader was
        // costing more overlap than it contributed exclusively.
        for v in 0..n {
            if inc.is_active(v) {
                let delta = inc.remove(coverage, v);
                if delta > 0 {
                    for &t in graph.neighbors(v) {
                        conflicts[t as usize] -= 1;
                    }
                    moves += 1;
                    improved = true;
                } else {
                    inc.add(coverage, v); // revert
                }
            }
        }
        // (c) destroy-and-repair: deactivate u, then greedily refill with
        // best positive-delta readers (u excluded); keep the exchange only
        // if it strictly beats the original weight. This generalises a
        // 1-swap to 1-out/k-in and escapes the Figure-2 trap where a
        // middle reader blocks two better flank readers.
        for u in 0..n {
            if !inc.is_active(u) {
                continue;
            }
            let before = inc.weight();
            inc.remove(coverage, u);
            for &t in graph.neighbors(u) {
                conflicts[t as usize] -= 1;
            }
            let mut added: Vec<ReaderId> = Vec::new();
            loop {
                // Refill scan: the largest positive delta, ties to the
                // smallest id (first max wins).
                let best = (0..n)
                    .filter(|&v| v != u && !inc.is_active(v) && conflicts[v] == 0)
                    .map(|v| (inc.delta_if_added(coverage, v), Reverse(v)))
                    .filter(|&(delta, _)| delta > 0)
                    .max();
                let Some((_, Reverse(v))) = best else { break };
                inc.add(coverage, v);
                for &t in graph.neighbors(v) {
                    conflicts[t as usize] += 1;
                }
                added.push(v);
            }
            if inc.weight() > before {
                moves += 1;
                improved = true;
            } else {
                // revert the repair and the removal
                for v in added {
                    inc.remove(coverage, v);
                    for &t in graph.neighbors(v) {
                        conflicts[t as usize] -= 1;
                    }
                }
                inc.add(coverage, u);
                for &t in graph.neighbors(u) {
                    conflicts[t as usize] += 1;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let mut set = inc.active().to_vec();
    set.sort_unstable();
    let final_weight = inc.weight();
    counter!(sub, "local_search.moves", moves as u64);
    counter!(
        sub,
        "local_search.weight_gain",
        (final_weight - initial_weight) as u64
    );
    debug_assert!(final_weight >= initial_weight);
    ImprovementReport {
        set,
        initial_weight,
        final_weight,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactScheduler;
    use crate::hill_climbing::HillClimbing;
    use crate::scheduler::OneShotScheduler;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel, TagSet};

    fn setup(n: usize, seed: u64) -> (rfid_model::Deployment, Coverage, rfid_graph::Csr) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: n,
            n_tags: 300,
            region_side: 90.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 15.0,
                lambda_interrogation: 7.0,
            },
        }
        .generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        (d, c, g)
    }

    #[test]
    fn never_decreases_weight_and_stays_feasible() {
        for seed in 0..5 {
            let (d, c, g) = setup(25, seed);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let start = HillClimbing::default().schedule(&input);
            let report = improve_schedule(&input, &start);
            assert!(report.final_weight >= report.initial_weight, "seed {seed}");
            assert!(d.is_feasible(&report.set), "seed {seed}");
            assert_eq!(report.final_weight, input.weight_of(&report.set));
        }
    }

    #[test]
    fn figure2_trap_is_escaped() {
        use rfid_geometry::{Point, Rect};
        // GHC stalls at {B} (weight 3); a swap B→A then add C reaches the
        // optimum {A, C} (weight 4).
        let d = rfid_model::Deployment::new(
            Rect::new(-10.0, -10.0, 40.0, 10.0),
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
            ],
            vec![9.0, 9.0, 9.0],
            vec![6.0, 7.0, 6.0],
            vec![
                Point::new(-3.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(15.0, 0.0),
                Point::new(23.0, 0.0),
                Point::new(10.0, 0.0),
            ],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let start = HillClimbing::default().schedule(&input);
        assert_eq!(input.weight_of(&start), 3);
        let report = improve_schedule(&input, &start);
        assert_eq!(
            report.final_weight, 4,
            "local search should reach the Figure-2 optimum"
        );
        assert!(report.moves > 0);
    }

    #[test]
    fn exact_start_is_already_locally_optimal() {
        for seed in 0..3 {
            let (d, c, g) = setup(14, seed);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let opt = ExactScheduler::default().schedule(&input);
            let report = improve_schedule(&input, &opt);
            assert_eq!(report.final_weight, report.initial_weight, "seed {seed}");
            assert_eq!(
                report.set, opt,
                "seed {seed}: exact optimum must be a fixed point"
            );
        }
    }

    #[test]
    fn empty_start_climbs_to_something() {
        let (d, c, g) = setup(20, 1);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let report = improve_schedule(&input, &[]);
        assert!(report.final_weight > 0);
        assert!(d.is_feasible(&report.set));
    }
}
