//! Colorwave baseline (CA) — Waldrop, Engels, Sarma, WCNC 2003 (paper ref
//! \[21\]).
//!
//! Colorwave's Distributed Color Selection (DCS) colours the interference
//! graph by repeated randomised conflict resolution: every reader holds a
//! colour (time slot id) in `[0, max_colors)`; when two neighbours share a
//! colour, one of them "kicks" — re-draws a fresh random colour — and the
//! process repeats until the colouring is proper (or a round budget runs
//! out, after which deterministic first-fit repairs the leftovers so the
//! output is always a valid schedule).
//!
//! For the one-shot comparison we give the baseline its best case: the
//! returned activation is the colour class with the largest Definition-3
//! weight. (Each colour class of a proper colouring is an independent set
//! of the interference graph, hence a feasible scheduling set.)

use crate::scheduler::{OneShotInput, OneShotScheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_graph::Csr;
use rfid_model::{ReaderId, WeightEvaluator};
use rfid_obs::{counter, span, Subscriber};

/// The Colorwave (CA) baseline scheduler.
#[derive(Debug, Clone)]
pub struct Colorwave {
    /// Colour-space size; `None` = max degree + 1 (always sufficient).
    pub max_colors: Option<usize>,
    /// Rounds of randomised conflict resolution before deterministic
    /// repair.
    pub max_rounds: usize,
    rng: StdRng,
}

impl Colorwave {
    /// Creates the baseline with a seeded RNG (reproducible runs).
    pub fn seeded(seed: u64) -> Self {
        Colorwave {
            max_colors: None,
            max_rounds: 200,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs DCS and returns a proper colouring of `graph`.
    pub fn color(&mut self, graph: &Csr) -> Vec<usize> {
        self.color_observed(graph, None)
    }

    /// [`color`](Self::color) with round/kick counters reported to `sub`.
    /// The colouring is bit-identical whether or not a subscriber listens.
    pub fn color_observed(&mut self, graph: &Csr, sub: Option<&dyn Subscriber>) -> Vec<usize> {
        let n = graph.n();
        let colors = self.max_colors.unwrap_or(graph.max_degree() + 1).max(1);
        let mut color: Vec<usize> = (0..n).map(|_| self.rng.random_range(0..colors)).collect();
        for _ in 0..self.max_rounds {
            counter!(sub, "colorwave.rounds");
            // Collect conflicted readers; the lower-id endpoint of each
            // conflicted edge kicks (re-draws) — the WCNC paper resolves by
            // "the reader that detects the collision first"; with
            // synchronous rounds we break the symmetry by id.
            let mut kicked = vec![false; n];
            let mut any = false;
            for (a, b) in graph.edges() {
                if color[a] == color[b] {
                    any = true;
                    kicked[a.min(b)] = true;
                }
            }
            if !any {
                return color;
            }
            for v in 0..n {
                if kicked[v] {
                    counter!(sub, "colorwave.kicks");
                    color[v] = self.rng.random_range(0..colors);
                }
            }
        }
        // Round budget exhausted: repair remaining conflicts first-fit so
        // the colouring is proper (may exceed `colors`).
        for v in 0..n {
            let clash = graph
                .neighbors(v)
                .iter()
                .any(|&t| color[t as usize] == color[v]);
            if clash {
                let used: std::collections::BTreeSet<usize> = graph
                    .neighbors(v)
                    .iter()
                    .map(|&t| color[t as usize])
                    .collect();
                color[v] = (0..)
                    .find(|c| !used.contains(c))
                    .expect("some colour is free");
            }
        }
        color
    }
}

impl OneShotScheduler for Colorwave {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        let sub = input.subscriber;
        let _span = span!(sub, "colorwave.schedule");
        let n = input.deployment.n_readers();
        if n == 0 {
            return Vec::new();
        }
        let color = self.color_observed(input.graph, sub);
        let num_colors = color.iter().copied().max().unwrap_or(0) + 1;
        counter!(sub, "colorwave.colors", num_colors as u64);
        let mut classes: Vec<Vec<ReaderId>> = vec![Vec::new(); num_colors];
        for v in 0..n {
            classes[color[v]].push(v);
        }
        // Best colour class by weight (generous reading of the baseline),
        // selected like `max_by_key`: the last maximum wins on ties.
        let mut weights = WeightEvaluator::new(input.coverage);
        let best = (0..classes.len()).max_by_key(|&i| {
            let class = &classes[i];
            (
                weights.weight(class, input.unread),
                std::cmp::Reverse(class.first().copied().unwrap_or(usize::MAX)),
            )
        });
        match best {
            Some(i) => std::mem::take(&mut classes[i]),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_graph::is_proper_coloring;
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::{Coverage, RadiusModel, TagSet};

    fn scenario(n_readers: usize, seed: u64) -> rfid_model::Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers,
            n_tags: 100,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 15.0,
                lambda_interrogation: 7.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn coloring_is_always_proper() {
        for seed in 0..5 {
            let d = scenario(40, seed);
            let g = interference_graph(&d);
            let mut cw = Colorwave::seeded(seed);
            let color = cw.color(&g);
            assert!(is_proper_coloring(&g, &color), "seed {seed}");
        }
    }

    #[test]
    fn tiny_round_budget_still_proper_via_repair() {
        let d = scenario(40, 1);
        let g = interference_graph(&d);
        let mut cw = Colorwave::seeded(1);
        cw.max_rounds = 0; // force deterministic repair path
        let color = cw.color(&g);
        assert!(is_proper_coloring(&g, &color));
    }

    #[test]
    fn schedule_is_feasible_and_nonempty() {
        let d = scenario(40, 2);
        let g = interference_graph(&d);
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut cw = Colorwave::seeded(2);
        let set = cw.schedule(&input);
        assert!(!set.is_empty());
        assert!(d.is_feasible(&set));
    }

    #[test]
    fn seeded_runs_reproduce() {
        let d = scenario(30, 3);
        let g = interference_graph(&d);
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let a = Colorwave::seeded(7).schedule(&input);
        let b = Colorwave::seeded(7).schedule(&input);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_schedules_nothing() {
        let d = rfid_model::Deployment::new(
            rfid_geometry::Rect::square(1.0),
            vec![],
            vec![],
            vec![],
            vec![],
        );
        let g = interference_graph(&d);
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(0);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        assert!(Colorwave::seeded(0).schedule(&input).is_empty());
    }
}
