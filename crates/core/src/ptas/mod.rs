//! Algorithm 1 — PTAS for MWFS **with location information** (paper
//! Section IV).
//!
//! Readers may have arbitrary, per-reader interference radii. The scheme:
//!
//! 1. Scale all interference disks so the largest radius is `1/2`
//!    and partition them into *levels*: level `j` holds the disks with
//!    `1/(k+1)^{j+1} < 2R_i ≤ 1/(k+1)^j` ([`rfid_geometry::LevelAssignment`]).
//! 2. For every `(r, s)`-shifting of the hierarchical grid
//!    ([`rfid_geometry::HierarchicalGrid`]), discard each disk that *hits* a
//!    kept line of its own level — the **survive** test. Surviving disks are
//!    strictly confined to one square per level, which decouples the plane
//!    into a square hierarchy.
//! 3. Run a dynamic program over the relevant squares, coarsest level last:
//!    `MWFS(S, I)` enumerates the independent sets `D` of level-`level(S)`
//!    disks inside `S` that are compatible with the boundary context `I`
//!    (at most `Λ` disks, per the paper's pseudo-code) and combines them
//!    with the children’s memoised solutions (the `dp` submodule).
//! 4. Keep the best shifting. Theorem 2: some shifting preserves
//!    `(1 − 1/k)²` of the optimum weight.
//!
//! Because the weight is sub-additive (`w(X₁∪X₂) ≤ w(X₁)+w(X₂)` — the
//! paper's stated complication over Erlebach–Jansen–Seidel), every candidate
//! union is re-scored with the exact global weight function rather than by
//! adding partial weights.
//!
//! Implementation refinement (documented in DESIGN.md): after the DP, the
//! solution is greedily augmented with discarded (non-surviving) readers
//! that still fit feasibly with positive marginal weight. This never hurts
//! and recovers most of the weight the shifting discarded; disable with
//! [`PtasScheduler::augment`]` = false` to measure the bare DP (the
//! ablation bench does exactly that).

mod dp;
mod survivors;

pub use survivors::{compute_survivors, SquareTree};

use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_geometry::{LevelAssignment, Shifting};
use rfid_model::{IncrementalCore, ReaderId, WeightEvaluator};
use rfid_obs::{counter, histogram, span};

/// Algorithm 1 configuration.
#[derive(Debug, Clone, Copy)]
pub struct PtasScheduler {
    /// Grid parameter `k ≥ 2`; the guarantee is `(1 − 1/k)²` per Theorem 2
    /// and the work grows with the `k²` shiftings.
    pub k: usize,
    /// `Λ`: maximum number of same-level disks enumerated per square (the
    /// paper's "for all `J ⊆ Y` with at most Λ disks").
    pub lambda_cap: usize,
    /// Greedily re-add non-surviving readers after the DP (see module doc).
    pub augment: bool,
}

impl Default for PtasScheduler {
    fn default() -> Self {
        PtasScheduler {
            k: 4,
            lambda_cap: 4,
            augment: true,
        }
    }
}

impl OneShotScheduler for PtasScheduler {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        assert!(self.k >= 2, "k must be ≥ 2");
        let sub = input.subscriber;
        let _span = span!(sub, "ptas.schedule");
        let mut weights = WeightEvaluator::new(input.coverage);
        // Readers covering no unread tag can never raise the weight; prune
        // them from the search space.
        let candidates = input.positive_readers();
        if candidates.is_empty() {
            return Vec::new();
        }
        let radii: Vec<f64> = candidates
            .iter()
            .map(|&v| input.deployment.interference_radii()[v])
            .collect();
        let levels = LevelAssignment::new(&radii, self.k);

        let solutions: Vec<Vec<ReaderId>> = Shifting::all(self.k)
            .into_iter()
            .map(|shift| self.solve_shifting(input, candidates, &levels, shift))
            .collect();
        counter!(sub, "ptas.shiftings", solutions.len() as u64);
        counter!(sub, "ptas.candidates", candidates.len() as u64);
        let mut best: Vec<ReaderId> = Vec::new();
        let mut best_w = 0usize;
        for x in solutions {
            let w = weights.weight(&x, input.unread);
            histogram!(sub, "ptas.shifting_weight", w as u64);
            if w > best_w || (w == best_w && x.len() < best.len()) {
                best_w = w;
                best = x;
            }
        }
        if self.augment {
            best = augment_greedy(input, best);
        }
        best.sort_unstable();
        best
    }
}

impl PtasScheduler {
    /// One `(r, s)`-shifting: survivors → square tree → DP → union of root
    /// solutions.
    fn solve_shifting(
        &self,
        input: &OneShotInput<'_>,
        candidates: &[ReaderId],
        levels: &LevelAssignment,
        shift: Shifting,
    ) -> Vec<ReaderId> {
        let survivors = compute_survivors(input.deployment, candidates, levels, shift);
        if survivors.tree.is_empty() {
            return Vec::new();
        }
        let mut solver = dp::DpSolver::new(input, &survivors, self.lambda_cap);
        let mut x: Vec<ReaderId> = Vec::new();
        for root in survivors.tree.roots() {
            x.extend(solver.solve(*root, &[]));
        }
        x
    }
}

/// Greedy augmentation: try every reader outside `x` in descending
/// singleton-weight order; add it when it is independent from the current
/// set and strictly increases the weight.
fn augment_greedy(input: &OneShotInput<'_>, x: Vec<ReaderId>) -> Vec<ReaderId> {
    let (coverage, singleton) = (input.coverage, input.singleton_weights());
    let mut inc = IncrementalCore::new();
    inc.reset(coverage, input.unread);
    let mut blocked = vec![false; input.deployment.n_readers()];
    for &v in &x {
        inc.add(coverage, v);
        for &t in input.graph.neighbors(v) {
            blocked[t as usize] = true;
        }
    }
    let mut order: Vec<ReaderId> = input
        .positive_readers()
        .iter()
        .copied()
        .filter(|&v| !inc.is_active(v))
        .collect();
    order.sort_by(|&a, &b| singleton[b].cmp(&singleton[a]).then(a.cmp(&b)));
    for v in order {
        if blocked[v] || inc.is_active(v) {
            continue;
        }
        if inc.delta_if_added(coverage, v) > 0 {
            inc.add(coverage, v);
            for &t in input.graph.neighbors(v) {
                blocked[t as usize] = true;
            }
        }
    }
    inc.active().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::{Point, Rect};
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, Deployment, RadiusModel, TagSet};

    fn paper_like(n_readers: usize, seed: u64) -> Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers,
            n_tags: 300,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 14.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn figure2_finds_the_optimum() {
        let d = Deployment::new(
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
        let set = PtasScheduler::default().schedule(&input);
        assert!(d.is_feasible(&set));
        assert_eq!(
            input.weight_of(&set),
            4,
            "PTAS should find the {{A, C}} optimum"
        );
    }

    #[test]
    fn output_is_always_feasible() {
        for seed in 0..8 {
            let d = paper_like(40, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let set = PtasScheduler::default().schedule(&input);
            assert!(d.is_feasible(&set), "seed {seed}: {set:?}");
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn close_to_exact_on_small_instances() {
        // Theorem 2 promises (1−1/k)² of OPT for the best shifting; with
        // augmentation the implementation should do at least that.
        for seed in 0..5 {
            let d = paper_like(14, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let k = 3;
            let set = PtasScheduler {
                k,
                ..Default::default()
            }
            .schedule(&input);
            let opt = crate::exact::ExactScheduler::default().schedule(&input);
            let w_set = input.weight_of(&set) as f64;
            let w_opt = input.weight_of(&opt) as f64;
            let bound = (1.0 - 1.0 / k as f64).powi(2);
            assert!(
                w_set + 1e-9 >= bound * w_opt,
                "seed {seed}: {w_set} < {bound}·{w_opt}"
            );
        }
    }

    #[test]
    fn bare_dp_is_never_better_than_augmented() {
        for seed in 0..4 {
            let d = paper_like(30, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let bare = PtasScheduler {
                augment: false,
                ..Default::default()
            }
            .schedule(&input);
            let full = PtasScheduler::default().schedule(&input);
            assert!(
                input.weight_of(&full) >= input.weight_of(&bare),
                "seed {seed}"
            );
            assert!(d.is_feasible(&bare));
        }
    }

    #[test]
    fn no_coverable_tags_schedules_nothing() {
        let d = Deployment::new(
            Rect::square(50.0),
            vec![Point::new(10.0, 10.0), Point::new(40.0, 40.0)],
            vec![5.0, 5.0],
            vec![2.0, 2.0],
            vec![Point::new(25.0, 25.0)], // out of both interrogation disks
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(1);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        assert!(PtasScheduler::default().schedule(&input).is_empty());
    }

    #[test]
    fn k_two_also_works() {
        let d = paper_like(25, 3);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let set = PtasScheduler {
            k: 2,
            ..Default::default()
        }
        .schedule(&input);
        assert!(d.is_feasible(&set));
    }
}
