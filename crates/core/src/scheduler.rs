//! The one-shot scheduler interface shared by all algorithms.

use rfid_graph::Csr;
use rfid_model::{Coverage, Deployment, ReaderId, TagSet, WeightEvaluator};
use rfid_obs::Subscriber;
use serde::{Deserialize, Serialize};

/// Everything a one-shot scheduler may consult for a single time slot.
///
/// Individual algorithms use different *subsets* of this input, matching
/// their assumption level: the PTAS reads reader locations from
/// `deployment`; Algorithms 2/3 only touch `graph`, `coverage` and
/// `unread`; the distributed scheduler additionally restricts itself to
/// hop-bounded views of them.
///
/// Construct with [`OneShotInput::builder`]; [`OneShotInput::new`] remains
/// as shorthand for the common deployment-plus-unread case.
pub struct OneShotInput<'a> {
    /// The physical world: readers, radii, tags.
    pub deployment: &'a Deployment,
    /// Precomputed tag ⇄ reader coverage tables.
    pub coverage: &'a Coverage,
    /// Interference graph of `deployment` (Definition 7).
    pub graph: &'a Csr,
    /// Tags already served are excluded from all weights.
    pub unread: &'a TagSet,
    /// Optional precomputed per-reader singleton weights `w({v})` under
    /// `unread`, provided by drivers that maintain them incrementally
    /// across slots (the MCS loop). Private so the only way in is the
    /// builder, which asserts consistency.
    singleton: Option<&'a [usize]>,
    /// Optional ascending list of exactly the readers with positive
    /// singleton weight under `unread`, maintained incrementally by
    /// drivers alongside `singleton`. Schedulers that only seed positive
    /// readers (Algorithm 2, GHC's default mode) then skip their O(n)
    /// per-slot scan. Private for the same reason as `singleton`.
    positive: Option<&'a [ReaderId]>,
    /// Observation sink for the scheduler's spans/counters; `None` (the
    /// default) costs one branch per instrumentation site. Subscribers
    /// observe only — by the DESIGN.md §8 contract they never influence
    /// the returned set.
    subscriber: Option<&'a dyn Subscriber>,
}

/// Staged construction of a [`OneShotInput`] — see
/// [`OneShotInput::builder`].
pub struct OneShotInputBuilder<'a> {
    deployment: &'a Deployment,
    coverage: &'a Coverage,
    graph: &'a Csr,
    unread: Option<&'a TagSet>,
    singleton: Option<&'a [usize]>,
    positive: Option<&'a [ReaderId]>,
    subscriber: Option<&'a dyn Subscriber>,
}

impl<'a> OneShotInputBuilder<'a> {
    /// Sets the unread-tag set (required).
    pub fn unread(mut self, unread: &'a TagSet) -> Self {
        debug_assert_eq!(unread.len(), self.deployment.n_tags());
        self.unread = Some(unread);
        self
    }

    /// Attaches precomputed singleton weights (`weights[v] == w({v})`
    /// under the unread set — the caller's responsibility, debug-asserted
    /// by sampling a seeded random subset of readers at
    /// [`build`](Self::build)). Schedulers then skip their own
    /// `O(Σ|tags(v)|)` rescan.
    pub fn singleton_weights(mut self, weights: &'a [usize]) -> Self {
        debug_assert_eq!(weights.len(), self.deployment.n_readers());
        self.singleton = Some(weights);
        self
    }

    /// Attaches the ascending list of exactly the readers whose singleton
    /// weight is positive under the unread set (the caller's
    /// responsibility, fully cross-checked against the attached singleton
    /// weights in debug builds at [`build`](Self::build)). Schedulers
    /// whose seed order admits only positive readers then skip their own
    /// O(n) rescan. Requires [`singleton_weights`](Self::singleton_weights)
    /// to also be attached.
    pub fn positive_readers(mut self, positive: &'a [ReaderId]) -> Self {
        self.positive = Some(positive);
        self
    }

    /// Attaches an observation sink for the scheduler's instrumentation.
    pub fn subscriber(mut self, subscriber: &'a dyn Subscriber) -> Self {
        self.subscriber = Some(subscriber);
        self
    }

    /// Like [`subscriber`](Self::subscriber) but accepts the optional
    /// handle drivers already hold, so they can forward it verbatim.
    pub fn maybe_subscriber(mut self, subscriber: Option<&'a dyn Subscriber>) -> Self {
        self.subscriber = subscriber;
        self
    }

    /// Finalises the input.
    ///
    /// # Panics
    /// When [`unread`](Self::unread) was never provided.
    pub fn build(self) -> OneShotInput<'a> {
        let unread = self
            .unread
            .expect("OneShotInput::builder requires .unread(...)");
        assert!(
            self.positive.is_none() || self.singleton.is_some(),
            "positive_readers requires singleton_weights"
        );
        let input = OneShotInput {
            deployment: self.deployment,
            coverage: self.coverage,
            graph: self.graph,
            unread,
            singleton: self.singleton,
            positive: self.positive,
            subscriber: self.subscriber,
        };
        #[cfg(debug_assertions)]
        if let Some(weights) = input.singleton {
            input.debug_check_singleton(weights);
            if let Some(positive) = input.positive {
                debug_assert!(
                    positive
                        .iter()
                        .copied()
                        .eq((0..weights.len()).filter(|&v| weights[v] > 0)),
                    "positive_readers must list exactly the positive-weight readers, ascending"
                );
            }
        }
        input
    }
}

impl<'a> OneShotInput<'a> {
    /// Starts building an input from the deployment and its two derived
    /// structures. The caller is responsible for `coverage`/`graph`
    /// actually belonging to `deployment` (debug-asserted).
    pub fn builder(
        deployment: &'a Deployment,
        coverage: &'a Coverage,
        graph: &'a Csr,
    ) -> OneShotInputBuilder<'a> {
        debug_assert_eq!(coverage.n_readers(), deployment.n_readers());
        debug_assert_eq!(graph.n(), deployment.n_readers());
        OneShotInputBuilder {
            deployment,
            coverage,
            graph,
            unread: None,
            singleton: None,
            positive: None,
            subscriber: None,
        }
    }

    /// Shorthand for `builder(deployment, coverage, graph).unread(unread)
    /// .build()` — the common case with no attached weights or subscriber.
    pub fn new(
        deployment: &'a Deployment,
        coverage: &'a Coverage,
        graph: &'a Csr,
        unread: &'a TagSet,
    ) -> Self {
        Self::builder(deployment, coverage, graph)
            .unread(unread)
            .build()
    }

    /// Samples a seeded random subset of readers and asserts their cached
    /// singleton weight matches a fresh evaluation — catching stale
    /// incremental state for *any* reader in debug builds, not just
    /// reader 0. The seed mixes the reader count with the cached weights
    /// so different call sites probe different subsets, while staying
    /// deterministic for a given input.
    #[cfg(debug_assertions)]
    fn debug_check_singleton(&self, weights: &[usize]) {
        let n = weights.len();
        if n == 0 {
            return;
        }
        let mut eval = WeightEvaluator::new(self.coverage);
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
            let expect = eval.singleton_weight(v, self.unread);
            debug_assert_eq!(weights[v], expect, "stale singleton weight for reader {v}");
        }
    }

    /// The attached singleton weights, if any.
    pub fn singleton_weights(&self) -> Option<&'a [usize]> {
        self.singleton
    }

    /// The attached positive-reader list, if any: exactly the readers
    /// with positive singleton weight under `unread`, ascending.
    pub fn positive_readers(&self) -> Option<&'a [ReaderId]> {
        self.positive
    }

    /// The attached observation sink, if any. Schedulers forward this to
    /// their instrumentation macros.
    pub fn subscriber(&self) -> Option<&'a dyn Subscriber> {
        self.subscriber
    }

    /// Per-reader singleton weights: the attached incremental snapshot
    /// when present, otherwise computed fresh by one scan over the
    /// readers in id order.
    pub fn singleton_or_compute(&self) -> std::borrow::Cow<'a, [usize]> {
        match self.singleton {
            Some(s) => std::borrow::Cow::Borrowed(s),
            None => std::borrow::Cow::Owned(
                (0..self.coverage.n_readers())
                    .map(|v| {
                        self.coverage
                            .tags_of(v)
                            .iter()
                            .filter(|&&t| self.unread.is_unread(t as usize))
                            .count()
                    })
                    .collect(),
            ),
        }
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
    /// Stable name used in experiment tables.
    fn name(&self) -> &'static str;

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

// Manual impl rather than `#[derive(Default)]`: the vendored serde derive
// walks variant attributes and does not understand `#[default]`.
#[allow(clippy::derivable_impls)]
impl Default for AlgorithmKind {
    fn default() -> Self {
        AlgorithmKind::LocalGreedy
    }
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
        for kind in AlgorithmKind::paper_lineup()
            .into_iter()
            .chain(std::iter::once(AlgorithmKind::Exact))
        {
            let s = make_scheduler(kind, 0);
            assert!(!s.name().is_empty());
        }
    }
}
