//! Algorithm 2 — centralized reader-activation scheduling **without
//! location information** (paper Section V-A).
//!
//! Only the interference graph `G` is assumed (obtainable from an RF site
//! survey); no coordinates. Following Sakai–Togasaki–Yamazaki's greedy for
//! maximum-weight independent sets on growth-bounded graphs:
//!
//! 1. pick the reader `v` with the maximum weight "by activating it alone"
//!    (its singleton weight);
//! 2. compute local MWFS `Γ_r(v)` inside the `r`-hop neighbourhood
//!    `N(v)^r`, growing `r` while `w(Γ_{r+1}) ≥ ρ·w(Γ_r)` (`ρ = 1 + ε`);
//!    the growth stops at `r̄`, which Theorem 3 bounds by a constant `c(ρ)`;
//! 3. commit `Γ_{r̄}` to the answer, delete `N(v)^{r̄+1}` from the graph
//!    (the extra hop guarantees the union over rounds stays feasible), and
//!    repeat until no reader remains.
//!
//! Theorem 4: the result is a feasible scheduling set of weight at least
//! `w(OPT)/ρ`.
//!
//! Local MWFS computation uses the exact branch-and-bound of
//! [`crate::exact`] on the (small, growth-bounded) hop ball — the paper's
//! "by enumeration".
//!
//! The scheduler instance owns a [`SlotArena`]: weight cores, BFS state
//! and the seed-order/alive buffers persist across `schedule` calls, so a
//! covering-schedule slot pays a stamped reset (a packed-word memcpy)
//! instead of an `O(n_tags + n_readers)` rebuild — the difference between
//! minutes and sub-second at n = 100k.

use crate::arena::{AliveSet, BallScratch, SlotArena};
use crate::exact::{exact_mwfs_weighted, MwfsScratch, DEFAULT_NODE_BUDGET};
use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_graph::Csr;
use rfid_model::{singleton_weight, Coverage, ReaderId, TagSet};
use rfid_obs::{counter, histogram, span};

/// Algorithm 2 configuration plus its cross-call scratch arena.
#[derive(Debug, Clone)]
pub struct LocalGreedy {
    /// Growth threshold `ρ = 1 + ε > 1`. Larger ρ stops the hop growth
    /// earlier (cheaper, weaker guarantee `w ≥ OPT/ρ`).
    pub rho: f64,
    /// Hard cap `c` on the growth radius `r̄` (Theorem 3 guarantees a
    /// constant bound exists; this is its concrete value).
    pub max_hops: u32,
    arena: SlotArena,
    /// Positive-singleton readers, sorted by (weight desc, id desc).
    order: Vec<ReaderId>,
    /// Counting-sort workspace: occupancy/placement cursor per weight.
    counts: Vec<u32>,
    /// Counting-sort output buffer, swapped into `order`.
    sorted: Vec<ReaderId>,
    alive: AliveSet,
    /// Readers killed by the last call's ball removals — undone at the
    /// start of the next call, so the alive reset costs `O(kills)`, not
    /// `O(n)`.
    killed: Vec<ReaderId>,
    ball: Vec<usize>,
    gamma: Vec<ReaderId>,
    gamma_next: Vec<ReaderId>,
}

impl LocalGreedy {
    /// A scheduler with the given growth parameters and an empty arena
    /// (sized on the first [`schedule`](OneShotScheduler::schedule) call).
    pub fn new(rho: f64, max_hops: u32) -> Self {
        LocalGreedy {
            rho,
            max_hops,
            arena: SlotArena::new(),
            order: Vec::new(),
            counts: Vec::new(),
            sorted: Vec::new(),
            alive: AliveSet::default(),
            killed: Vec::new(),
            ball: Vec::new(),
            gamma: Vec::new(),
            gamma_next: Vec::new(),
        }
    }
}

impl Default for LocalGreedy {
    fn default() -> Self {
        LocalGreedy::new(1.1, 3)
    }
}

/// The shared growth step of Algorithms 2 and 3: starting from seed `v`,
/// grows `Γ_0, Γ_1, …` until the ρ-growth condition fails or `max_hops` is
/// reached, and returns `r̄`. `alive` restricts both the hop balls and the
/// MWFS candidate pool.
///
/// All state is caller-owned, so a schedule run pays the `O(n_tags)`
/// weight-structure setup once instead of once per seed, and no per-seed
/// heap allocation at all once warm. `Γ_{r̄}` is written into `gamma`;
/// `next` is the double-buffer for the candidate of the following level.
/// `singleton` must hold `w({u})` under `unread` for every reader of
/// `graph`: the seed's Γ_0 weight, the prefilter below and the restricted
/// search's bound keys all come from lookups instead of coverage rescans.
///
/// Returns `(r̄, ball_is_dead_ball)`: the flag is `true` exactly when the
/// growth loop exited by failing the ρ-test, in which case `ball` already
/// holds `N(v)^{r̄+1}` — the removal ball both algorithms need next — and
/// the caller can skip recomputing it.
#[allow(clippy::too_many_arguments)] // scratch split keeps borrows disjoint
pub(crate) fn grow_local_mwfs_in(
    mwfs: &mut MwfsScratch,
    balls: &mut BallScratch,
    ball: &mut Vec<usize>,
    gamma: &mut Vec<ReaderId>,
    next: &mut Vec<ReaderId>,
    coverage: &Coverage,
    graph: &Csr,
    unread: &TagSet,
    singleton: &[usize],
    v: ReaderId,
    alive: &AliveSet,
    rho: f64,
    max_hops: u32,
) -> (u32, bool) {
    // Γ_0 = MWFS within N(v)^0 = {v}.
    gamma.clear();
    gamma.push(v);
    debug_assert_eq!(
        singleton[v],
        singleton_weight(coverage, v, unread),
        "stale singleton weight for seed {v}"
    );
    let mut cur_w = singleton[v];
    let mut r = 0u32;
    let mut ball_is_dead_ball = false;
    while r < max_hops {
        balls.ball_into(graph, v, r + 1, alive, ball);
        ball_is_dead_ball = true;
        // Sub-additive prefilter: the restricted search can never beat
        // the ball's total singleton mass, so when even that bound falls
        // short of ρ·cur_w the growth test is doomed — break with the
        // removal ball already in hand and skip the search. Exactly the
        // comparison the search result would lose: `next_w ≤ bound` and
        // the conversion to f64 is monotone, so no boundary case can
        // disagree with the full computation.
        let bound: usize = ball.iter().map(|&u| singleton[u]).sum();
        if (bound as f64) < rho * cur_w as f64 {
            break;
        }
        let (next_w, _) = exact_mwfs_weighted(
            mwfs,
            coverage,
            graph,
            ball,
            &[],
            DEFAULT_NODE_BUDGET,
            singleton,
            next,
        );
        if (next_w as f64) >= rho * cur_w as f64 && next_w > 0 {
            std::mem::swap(gamma, next);
            cur_w = next_w;
            r += 1;
            ball_is_dead_ball = false;
        } else {
            break;
        }
    }
    (r, ball_is_dead_ball)
}

impl OneShotScheduler for LocalGreedy {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        assert!(self.rho > 1.0, "ρ must exceed 1 (ρ = 1 + ε, ε > 0)");
        let sub = input.subscriber;
        let _span = span!(sub, "alg2.schedule");
        let n = input.deployment.n_readers();
        let graph = input.graph;
        let singleton = input.singleton_weights();
        // Singleton weights are fixed for the whole call, so the seed
        // sequence is a static priority order: sort once and walk a cursor
        // over dead readers instead of rescanning all n per round.
        //
        // Order: weight descending, ties towards the higher id — the same
        // strict (weight, id) order the distributed election uses, so
        // Algorithms 2 and 3 coincide when the distributed view covers the
        // whole graph. Zero-weight readers are dropped from the order (the
        // eager loop broke on the first one, so they can never seed), but
        // they stay *alive*: hop balls traverse them and the `N(v)^{r̄+1}`
        // removal must still reach through them, or later ball shapes —
        // and hence the schedule — would change.
        let mut warm = 0u64;
        self.order.clear();
        if self.order.capacity() < n {
            warm += 1;
            self.order.reserve(n);
        }
        self.order.extend_from_slice(input.positive_readers());
        // Counting sort into (weight desc, id desc): `order` is ascending
        // by id, so placing ids in reverse scan order lands each weight
        // bucket in descending id. O(P + max_w) against the comparison
        // sort's O(P log P) — the difference is material in the fat first
        // slots where P is most of n.
        let max_w = self.order.iter().map(|&v| singleton[v]).max().unwrap_or(0);
        if self.counts.capacity() < max_w + 1 {
            warm += 1;
        }
        self.counts.clear();
        self.counts.resize(max_w + 1, 0);
        for &v in &self.order {
            self.counts[singleton[v]] += 1;
        }
        let mut start = 0u32;
        for w in (1..=max_w).rev() {
            let c = self.counts[w];
            self.counts[w] = start;
            start += c;
        }
        if self.sorted.capacity() < n {
            warm += 1;
            self.sorted.reserve(n);
        }
        self.sorted.clear();
        self.sorted.resize(self.order.len(), 0);
        for &v in self.order.iter().rev() {
            let slot = &mut self.counts[singleton[v]];
            self.sorted[*slot as usize] = v;
            *slot += 1;
        }
        std::mem::swap(&mut self.order, &mut self.sorted);
        // Alive reset: undo only last call's kills instead of refilling
        // all n flags (`O(kills)`, and kills track the work actually done).
        if self.alive.len() != n {
            warm += 1;
            self.alive.reset(n);
            self.killed.clear();
            self.killed.reserve(n);
        } else {
            for u in self.killed.drain(..) {
                self.alive.revive(u);
            }
        }
        // Ball output is bounded by n; reserving up front keeps later
        // slots allocation-free even when their balls outgrow earlier ones.
        if self.ball.capacity() < n {
            warm += 1;
            self.ball.reserve(n);
        }
        if self.gamma.capacity() < n {
            warm += 1;
            self.gamma.reserve(n);
            self.gamma_next.reserve(n);
        }
        self.arena.prepare(input.coverage, input.unread, n);
        self.arena.note_allocs(warm);
        let mut cursor = 0usize;
        let mut x: Vec<ReaderId> = Vec::new();
        loop {
            while cursor < self.order.len() && !self.alive.get(self.order[cursor]) {
                cursor += 1;
            }
            let Some(&v) = self.order.get(cursor) else {
                break;
            };
            let (r, ball_is_dead_ball) = grow_local_mwfs_in(
                &mut self.arena.mwfs,
                &mut self.arena.balls,
                &mut self.ball,
                &mut self.gamma,
                &mut self.gamma_next,
                input.coverage,
                graph,
                input.unread,
                singleton,
                v,
                &self.alive,
                self.rho,
                self.max_hops,
            );
            counter!(sub, "alg2.seeds");
            histogram!(sub, "alg2.growth_radius", r as u64);
            counter!(sub, "alg2.committed_readers", self.gamma.len() as u64);
            x.extend_from_slice(&self.gamma);
            // Remove N(v)^{r̄+1} from the (alive-induced) graph. When the
            // growth loop's last failed probe already computed that ball,
            // reuse it instead of repeating the BFS.
            if !ball_is_dead_ball {
                self.arena
                    .balls
                    .ball_into(graph, v, r + 1, &self.alive, &mut self.ball);
            }
            for &u in &self.ball {
                self.alive.kill(u);
                self.killed.push(u);
            }
        }
        x.sort_unstable();
        x.dedup();
        x
    }

    fn take_scratch_allocations(&mut self) -> u64 {
        self.arena.take_allocs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::{Point, Rect};
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, Deployment, RadiusModel};

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
        let unread = rfid_model::TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // The three readers are pairwise independent → the 1-hop ball of the
        // heaviest (B) is just {B}… but with no edges every ball is a
        // singleton, so the algorithm processes each reader separately and
        // returns all three. Weight 3 — here the interference graph carries
        // no geometry, and that is exactly the information Algorithm 2 lacks
        // versus Algorithm 1.
        let set = LocalGreedy::default().schedule(&input);
        assert!(d.is_feasible(&set));
        assert_eq!(set, vec![0, 1, 2]);
        assert_eq!(input.weight_of(&set), 3);
    }

    #[test]
    fn output_is_always_feasible() {
        for seed in 0..8 {
            let d = paper_like(40, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = rfid_model::TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let set = LocalGreedy::default().schedule(&input);
            assert!(d.is_feasible(&set), "seed {seed}: {set:?}");
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn reused_instance_matches_fresh_instances_and_stops_allocating() {
        // Cross-call scratch reuse must be invisible in the output, and a
        // warm instance must not grow its buffers again.
        let d = paper_like(40, 5);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut unread = rfid_model::TagSet::all_unread(d.n_tags());
        let mut warm = LocalGreedy::default();
        for round in 0..4 {
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let from_warm = warm.schedule(&input);
            let from_fresh = LocalGreedy::default().schedule(&input);
            assert_eq!(from_warm, from_fresh, "round {round}");
            if round == 0 {
                assert!(warm.take_scratch_allocations() > 0, "cold call warms up");
            } else {
                assert_eq!(warm.take_scratch_allocations(), 0, "round {round}");
            }
            // Retire the tags just served so the next round differs.
            let served = rfid_model::WeightEvaluator::new(&c).well_covered(&from_warm, &unread);
            unread.mark_all_read(&served);
        }
    }

    #[test]
    fn respects_theorem4_bound_against_exact() {
        // w(X) ≥ w(OPT)/ρ on instances small enough for the exact solver.
        for seed in 0..5 {
            let d = paper_like(14, seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = rfid_model::TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let rho = 1.25;
            let set = LocalGreedy::new(rho, 4).schedule(&input);
            let opt = crate::exact::ExactScheduler::default().schedule(&input);
            let w_set = input.weight_of(&set) as f64;
            let w_opt = input.weight_of(&opt) as f64;
            assert!(
                w_set + 1e-9 >= w_opt / rho,
                "seed {seed}: {w_set} < {w_opt}/ρ"
            );
        }
    }

    #[test]
    fn larger_rho_never_grows_farther() {
        let d = paper_like(40, 3);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = rfid_model::TagSet::all_unread(d.n_tags());
        let alive = AliveSet::all_alive(d.n_readers());
        let singleton = rfid_model::all_singleton_weights(&c, &unread);
        let v = (0..d.n_readers()).max_by_key(|&v| singleton[v]).unwrap();
        let mut mwfs = MwfsScratch::new(&c, &unread);
        let mut balls = BallScratch::new(d.n_readers());
        let (mut ball, mut gamma, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let mut grow = |rho| {
            grow_local_mwfs_in(
                &mut mwfs, &mut balls, &mut ball, &mut gamma, &mut next, &c, &g, &unread,
                &singleton, v, &alive, rho, 5,
            )
            .0
        };
        let r_small = grow(1.05);
        let r_big = grow(2.0);
        assert!(
            r_big <= r_small,
            "ρ=2 grew farther ({r_big}) than ρ=1.05 ({r_small})"
        );
    }

    #[test]
    fn no_tags_schedules_nothing() {
        let d = Deployment::new(
            Rect::square(10.0),
            vec![Point::new(2.0, 2.0), Point::new(8.0, 8.0)],
            vec![2.0, 2.0],
            vec![1.0, 1.0],
            vec![],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = rfid_model::TagSet::all_unread(0);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        assert!(LocalGreedy::default().schedule(&input).is_empty());
    }

    #[test]
    fn restricted_ball_ignores_dead_nodes() {
        // path 0-1-2-3; with node 1 dead, 0's 2-hop ball is just {0}.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut alive = AliveSet::all_alive(4);
        alive.kill(1);
        let mut balls = BallScratch::new(4);
        let mut ball = Vec::new();
        balls.ball_into(&g, 0, 2, &alive, &mut ball);
        assert_eq!(ball, vec![0]);
        balls.ball_into(&g, 2, 1, &alive, &mut ball);
        assert_eq!(ball, vec![2, 3]);
    }
}
