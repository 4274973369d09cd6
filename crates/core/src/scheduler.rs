//! The one-shot scheduler interface shared by all algorithms.

use rfid_graph::Csr;
use rfid_model::{
    all_singleton_weights, singleton_weight, Coverage, Deployment, ReaderId, TagSet,
    WeightEvaluator,
};
use rfid_obs::Subscriber;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Everything a one-shot scheduler may consult for a single time slot.
///
/// Individual algorithms use different *subsets* of this input, matching
/// their assumption level: the PTAS reads reader locations from
/// `deployment`; Algorithms 2/3 only touch `graph`, `coverage` and
/// `unread`; the distributed scheduler additionally restricts itself to
/// hop-bounded views of them.
///
/// Every input carries the singleton weights `w({v})` under `unread` and
/// the ascending list of readers whose weight is positive:
/// [`new`](Self::new) computes both, and the covering driver,
/// which keeps them current across slots, hands its own through
/// [`with_weights`](Self::with_weights).
pub struct OneShotInput<'a> {
    /// The physical world: readers, radii, tags.
    pub deployment: &'a Deployment,
    /// Precomputed tag ⇄ reader coverage tables.
    pub coverage: &'a Coverage,
    /// Interference graph of `deployment` (Definition 7).
    pub graph: &'a Csr,
    /// Tags already served are excluded from all weights.
    pub unread: &'a TagSet,
    /// Observation sink for the scheduler's spans/counters; `None` (the
    /// default) costs one branch per instrumentation site. Subscribers
    /// observe only — by the DESIGN.md §8 contract they never influence
    /// the returned set.
    pub subscriber: Option<&'a dyn Subscriber>,
    /// `singleton[v] == w({v})` under `unread`. Private so every input
    /// goes through a constructor that computes or checks it.
    singleton: Cow<'a, [usize]>,
    /// Exactly the readers with positive singleton weight, ascending.
    positive: Cow<'a, [ReaderId]>,
}

impl<'a> OneShotInput<'a> {
    /// An input for `unread`, with its singleton weights
    /// ([`all_singleton_weights`]) and positive readers computed here. The
    /// caller is responsible for `coverage`/`graph` actually belonging to
    /// `deployment` (debug-asserted).
    pub fn new(
        deployment: &'a Deployment,
        coverage: &'a Coverage,
        graph: &'a Csr,
        unread: &'a TagSet,
    ) -> Self {
        let singleton = all_singleton_weights(coverage, unread);
        let positive = (0..singleton.len()).filter(|&v| singleton[v] > 0).collect();
        OneShotInput {
            deployment,
            coverage,
            graph,
            unread,
            subscriber: None,
            singleton: Cow::Owned(singleton),
            positive: Cow::Owned(positive),
        }
        .checked()
    }

    /// An input over weights the caller maintains incrementally (the
    /// covering driver): `singleton[v] == w({v})` under `unread` for every
    /// reader, and `positive` lists exactly the readers with positive
    /// weight, ascending.
    pub fn with_weights(
        deployment: &'a Deployment,
        coverage: &'a Coverage,
        graph: &'a Csr,
        unread: &'a TagSet,
        singleton: &'a [usize],
        positive: &'a [ReaderId],
    ) -> Self {
        OneShotInput {
            deployment,
            coverage,
            graph,
            unread,
            subscriber: None,
            singleton: Cow::Borrowed(singleton),
            positive: Cow::Borrowed(positive),
        }
        .checked()
    }

    /// Debug builds check that the parts belong to one deployment, that a
    /// seeded random sample of readers has current singleton weights —
    /// catching stale incremental state for *any* reader, not just
    /// reader 0 — and that the positive list is exact. The seed mixes the
    /// reader count with the weights so different call sites probe
    /// different subsets, while staying deterministic for a given input.
    fn checked(self) -> Self {
        if !cfg!(debug_assertions) {
            return self;
        }
        let n = self.deployment.n_readers();
        assert_eq!(self.coverage.n_readers(), n);
        assert_eq!(self.graph.n(), n);
        assert_eq!(self.unread.len(), self.deployment.n_tags());
        let weights = &self.singleton[..];
        assert_eq!(weights.len(), n);
        let mut state = (n as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(weights.iter().take(16).sum::<usize>() as u64);
        for _ in 0..n.min(4) {
            // splitmix64 step
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let v = (z % n as u64) as usize;
            let expect = singleton_weight(self.coverage, v, self.unread);
            assert_eq!(weights[v], expect, "stale singleton weight for reader {v}");
        }
        assert!(
            self.positive
                .iter()
                .copied()
                .eq((0..n).filter(|&v| weights[v] > 0)),
            "positive readers must list exactly the positive-weight readers, ascending"
        );
        self
    }

    /// Per-reader singleton weights `w({v})` under `unread`.
    pub fn singleton_weights(&self) -> &[usize] {
        &self.singleton
    }

    /// The readers with positive singleton weight under `unread`,
    /// ascending.
    pub fn positive_readers(&self) -> &[ReaderId] {
        &self.positive
    }

    /// Definition-3 weight of a feasible set under this input.
    pub fn weight_of(&self, set: &[ReaderId]) -> usize {
        WeightEvaluator::new(self.coverage).weight(set, self.unread)
    }
}

/// A one-shot (single time slot) scheduling algorithm.
///
/// Contract: the returned set must be a feasible scheduling set — pairwise
/// independent readers, verified in tests via
/// [`Deployment::is_feasible`](rfid_model::Deployment::is_feasible). The
/// set may be empty (e.g. when no unread tag is coverable).
pub trait OneShotScheduler {
    /// Computes an (approximate) maximum weighted feasible scheduling set.
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId>;

    /// Communication cost of the most recent [`schedule`](Self::schedule)
    /// call, for message-passing algorithms (Algorithm 3). Centralized
    /// algorithms return `None`.
    fn comm_stats(&self) -> Option<rfid_netsim::NetStats> {
        None
    }

    /// Readers known to have crash-stopped during the most recent
    /// [`schedule`](Self::schedule) call. The resilient covering-schedule
    /// loop drops them from the activation and requeues their tags.
    /// Default: none (centralized algorithms don't model crashes).
    fn crashed_readers(&self) -> Vec<ReaderId> {
        Vec::new()
    }

    /// Scratch-buffer growth events during the most recent
    /// [`schedule`](Self::schedule) call — the feed for the covering
    /// driver's `mcs.alloc` counter. Schedulers with persistent arenas
    /// (DESIGN.md §11) report warmup allocations here and zero once warm;
    /// the default covers schedulers that don't track allocations.
    fn take_scratch_allocations(&mut self) -> u64 {
        0
    }
}

/// Enumeration of the built-in algorithms, for harness configuration.
///
/// The default is [`LocalGreedy`](Self::LocalGreedy) — the paper's
/// central Algorithm 2, the workhorse the MCS drivers assume when no
/// algorithm is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Algorithm 1 — PTAS with location information.
    Ptas,
    /// Algorithm 2 — centralized, interference graph only.
    LocalGreedy,
    /// Algorithm 3 — distributed, interference graph only.
    Distributed,
    /// Colorwave baseline (CA).
    Colorwave,
    /// Greedy Hill-Climbing baseline (GHC).
    HillClimbing,
    /// Exact branch-and-bound (exponential; small instances only).
    Exact,
}

impl AlgorithmKind {
    /// The five algorithms compared in the paper's evaluation, in figure
    /// legend order.
    pub fn paper_lineup() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::Ptas,
            AlgorithmKind::LocalGreedy,
            AlgorithmKind::Distributed,
            AlgorithmKind::Colorwave,
            AlgorithmKind::HillClimbing,
        ]
    }

    /// Short label used in tables/CSV headers.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Ptas => "alg1-ptas",
            AlgorithmKind::LocalGreedy => "alg2-central",
            AlgorithmKind::Distributed => "alg3-distributed",
            AlgorithmKind::Colorwave => "ca-colorwave",
            AlgorithmKind::HillClimbing => "ghc",
            AlgorithmKind::Exact => "exact",
        }
    }
}

/// Instantiates a scheduler with its default parameters. `seed` feeds the
/// randomised algorithms (Colorwave's colour draws); deterministic
/// algorithms ignore it.
pub fn make_scheduler(kind: AlgorithmKind, seed: u64) -> Box<dyn OneShotScheduler> {
    match kind {
        AlgorithmKind::Ptas => Box::new(crate::ptas::PtasScheduler::default()),
        AlgorithmKind::LocalGreedy => Box::new(crate::local_greedy::LocalGreedy::default()),
        AlgorithmKind::Distributed => Box::new(crate::distributed::DistributedScheduler::default()),
        AlgorithmKind::Colorwave => Box::new(crate::colorwave::Colorwave::seeded(seed)),
        AlgorithmKind::HillClimbing => Box::new(crate::hill_climbing::HillClimbing::default()),
        AlgorithmKind::Exact => Box::new(crate::exact::ExactScheduler::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = AlgorithmKind::paper_lineup()
            .iter()
            .map(|k| k.label())
            .chain(std::iter::once(AlgorithmKind::Exact.label()))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn factory_builds_every_kind() {
        let d = Deployment::new(
            rfid_geometry::Rect::square(10.0),
            vec![rfid_geometry::Point::new(5.0, 5.0)],
            vec![2.0],
            vec![1.0],
            vec![rfid_geometry::Point::new(5.0, 5.5)],
        );
        let c = Coverage::build(&d);
        let g = rfid_model::interference::interference_graph(&d);
        let unread = TagSet::all_unread(1);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        for kind in AlgorithmKind::paper_lineup()
            .into_iter()
            .chain(std::iter::once(AlgorithmKind::Exact))
        {
            assert_eq!(
                make_scheduler(kind, 0).schedule(&input),
                vec![0],
                "{kind:?}"
            );
        }
    }
}
