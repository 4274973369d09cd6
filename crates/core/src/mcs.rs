//! The Minimum Covering Schedule greedy driver (paper Section III).
//!
//! "At the q-th time-slot, we choose a feasible scheduling set with maximum
//! weight and let them be active at time-slot q; it terminates when there
//! are no unread tags remained." — Theorem 1 shows this is a `log n`
//! approximation of the minimum covering schedule, provided each slot's set
//! is a maximum weighted feasible scheduling set. Plugging in the
//! *approximate* one-shot schedulers of this crate yields the algorithms
//! compared in Figures 6–7.
//!
//! Tags outside every interrogation region can never be served; the loop
//! ends when all *coverable* tags are read. A progress guard handles
//! approximate schedulers that return a zero-weight set while coverable
//! tags remain: the slot is re-run with the best singleton activation
//! (always weight ≥ 1), so the schedule always terminates — the guard
//! counts as a normal slot and is recorded for diagnostics.

use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_graph::Csr;
use rfid_model::{
    audit_activation, Coverage, CoverageRows, Deployment, PlaneScratch, ReaderId, SingletonWeights,
    TagId, TagSet,
};
use rfid_obs::{counter, histogram, span, SlotMetrics, Subscriber};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Lazily updated max-queue over singleton weights, shared by the
/// progress guards of both fault policies of [`covering_schedule_with`].
///
/// Singleton weights only ever decrease as the covering schedule marks
/// tags read (sub-additivity makes `w({v})` a monotone upper bound on any
/// future contribution of `v`), so the structure is a monotone bucket
/// queue: one bucket per cached weight, and a top cursor that only moves
/// down. [`best`](Self::best) sweeps the top bucket, dropping each stale
/// entry into the bucket of its corrected weight (an `O(1)` move, against
/// the `O(log n)` re-push of a heap), until the bucket holds only current
/// entries — the smallest id there is then the true maximum under the
/// fallback order `(weight, Reverse(id))`, i.e. highest weight with ties
/// towards the smallest id, exactly the order the eager `max_by_key` scan
/// used. Total relocation work over a whole schedule is bounded by the
/// number of (tag, reader) coverage incidences, replacing the
/// per-fallback-slot `O(n)` rescan.
struct LazyFallback {
    /// `buckets[w]` holds readers whose weight was `w` when last looked
    /// at; entries above a reader's current weight are stale.
    buckets: Vec<Vec<ReaderId>>,
    /// Highest bucket that may still hold an entry. Weights never grow,
    /// so this cursor only descends.
    top: usize,
}

impl LazyFallback {
    fn new(singleton: &SingletonWeights<'_>) -> Self {
        let max_w = (0..singleton.n_readers())
            .map(|v| singleton.get(v))
            .max()
            .unwrap_or(0);
        let mut buckets = vec![Vec::new(); max_w + 1];
        for v in 0..singleton.n_readers() {
            buckets[singleton.get(v)].push(v);
        }
        LazyFallback {
            buckets,
            top: max_w,
        }
    }

    /// The reader maximising `(current weight, Reverse(id))` among those
    /// not in `excluded`, or `None` when every reader is excluded. The
    /// queue keeps one entry per reader afterwards (the selected reader
    /// stays queued — its weight decreasing later is exactly the
    /// staleness the laziness absorbs).
    fn best(
        &mut self,
        singleton: &SingletonWeights<'_>,
        excluded: &[ReaderId],
        sub: Option<&dyn Subscriber>,
    ) -> Option<ReaderId> {
        counter!(sub, "mcs.fallback.queries", 1);
        if self.buckets.is_empty() {
            return None;
        }
        let mut w = self.top;
        loop {
            // Relocate stale entries down to their current buckets.
            let mut i = 0;
            while i < self.buckets[w].len() {
                let v = self.buckets[w][i];
                let current = singleton.get(v);
                debug_assert!(current <= w, "singleton weight increased");
                if current < w {
                    counter!(sub, "mcs.fallback.stale_repush", 1);
                    self.buckets[w].swap_remove(i);
                    self.buckets[current].push(v);
                } else {
                    i += 1;
                }
            }
            if self.buckets[w].is_empty() {
                // Nothing (current or stale) lives this high any more;
                // the cursor can skip it for every future query too.
                if w == 0 {
                    self.top = 0;
                    return None;
                }
                w -= 1;
                self.top = w;
                continue;
            }
            // Every entry here is current at weight `w`; the smallest
            // admissible id is the exact `(weight, Reverse(id))` maximum.
            self.top = w;
            let pick = self.buckets[w]
                .iter()
                .copied()
                .filter(|v| !excluded.contains(v))
                .min();
            match pick {
                Some(v) => {
                    counter!(sub, "mcs.fallback.hits", 1);
                    return Some(v);
                }
                // The whole bucket is crashed: look lower, but leave
                // `top` pointing here — these entries keep their weight.
                None if w == 0 => return None,
                None => w -= 1,
            }
        }
    }
}

/// Why a covering schedule could not be driven to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Neither the one-shot scheduler nor the singleton fallback could
    /// serve a single coverable unread tag — no activation makes progress.
    NoProgress {
        /// Tags served before the stall.
        served: usize,
        /// Coverable tags in the deployment.
        coverable: usize,
    },
    /// The slot budget ran out with coverable tags still unread.
    SlotBudgetExhausted {
        /// The exhausted budget.
        max_slots: usize,
        /// Tags served within the budget.
        served: usize,
        /// Coverable tags in the deployment.
        coverable: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoProgress { served, coverable } => write!(
                f,
                "no activation serves any coverable unread tag ({served} of {coverable} served)"
            ),
            ScheduleError::SlotBudgetExhausted {
                max_slots,
                served,
                coverable,
            } => write!(
                f,
                "covering schedule exceeded {max_slots} slots ({served} of {coverable} tags served)"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One time slot of a covering schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Activated readers (a feasible scheduling set).
    pub active: Vec<ReaderId>,
    /// Tags served this slot (well-covered under `active`).
    pub served: Vec<TagId>,
    /// `true` when the one-shot scheduler returned a zero-weight set and
    /// the singleton fallback produced this slot instead.
    pub fallback: bool,
}

/// A complete covering schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoveringSchedule {
    /// The slots in activation order.
    pub slots: Vec<SlotRecord>,
    /// Tags that no reader covers (never serviceable).
    pub uncoverable: Vec<TagId>,
}

impl CoveringSchedule {
    /// The paper's metric: number of time slots to read every coverable
    /// tag.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Total tags served.
    pub fn tags_served(&self) -> usize {
        self.slots.iter().map(|s| s.served.len()).sum()
    }

    /// Number of slots produced by the progress guard.
    pub fn fallback_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.fallback).count()
    }
}

/// How [`covering_schedule_with`] reacts when a slot cannot progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Trust the one-shot scheduler: a stalled or over-budget run is a
    /// [`ScheduleError`]. This is the paper's clean-room loop.
    #[default]
    Strict,
    /// Audit every activation ([`rfid_model::audit_activation`]) and
    /// degrade gracefully: crashed readers are stripped (their tags
    /// requeued), RTc pairs repaired by dropping the lower-weight member,
    /// and a stalled/over-budget run abandons the remaining tags instead
    /// of erroring.
    Resilient,
}

/// Options for [`covering_schedule_with`]: the fault policy, the slot
/// budget and the metrics sinks, replacing the old
/// `greedy`/`try_greedy`/`resilient` triple of entry points.
#[derive(Default)]
pub struct McsOptions<'a> {
    fault_policy: FaultPolicy,
    max_slots: Option<usize>,
    subscriber: Option<&'a dyn Subscriber>,
    slot_metrics: bool,
}

impl<'a> McsOptions<'a> {
    /// Defaults: strict fault policy, a one-million-slot budget, no
    /// subscriber, no per-slot metrics.
    pub fn new() -> Self {
        McsOptions::default()
    }

    /// Selects the [`FaultPolicy`].
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Shorthand for `fault_policy(FaultPolicy::Resilient)`.
    pub fn resilient(self) -> Self {
        self.fault_policy(FaultPolicy::Resilient)
    }

    /// Bounds runaway schedulers (default one million slots).
    pub fn max_slots(mut self, max_slots: usize) -> Self {
        self.max_slots = Some(max_slots);
        self
    }

    /// Attaches an observation sink; the driver forwards it to the
    /// one-shot scheduler through [`OneShotInput`] and emits its own
    /// spans/counters (`mcs.*`) into it.
    pub fn subscriber(mut self, subscriber: &'a dyn Subscriber) -> Self {
        self.subscriber = Some(subscriber);
        self
    }

    /// Collects one [`SlotMetrics`] record per slot into
    /// [`McsRun::slot_metrics`].
    pub fn slot_metrics(mut self, collect: bool) -> Self {
        self.slot_metrics = collect;
        self
    }

    fn budget(&self) -> usize {
        self.max_slots.unwrap_or(1_000_000)
    }
}

/// Outcome of [`covering_schedule_with`]: the
/// schedule, optional per-slot metrics, and an account of every
/// degradation the resilient policy absorbed (all zero under
/// [`FaultPolicy::Strict`], which errors instead of degrading).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McsRun {
    /// The (complete under `Strict`, possibly partial under `Resilient`)
    /// covering schedule; every slot is feasible.
    pub schedule: CoveringSchedule,
    /// Per-slot records, filled only when [`McsOptions::slot_metrics`]
    /// was requested. `slot_metrics[i]` describes `schedule.slots[i]`.
    pub slot_metrics: Vec<SlotMetrics>,
    /// RTc pairs broken up in-slot by dropping the lower-weight member.
    pub repaired_pairs: usize,
    /// Activation entries removed because the scheduler reported the
    /// reader crashed (summed over slots). Tags those readers claimed stay
    /// unread and are requeued in later slots.
    pub crashed_dropped: usize,
    /// Coverable tags left unread because no surviving activation could
    /// serve them within the slot budget.
    pub abandoned_tags: Vec<TagId>,
}

impl McsRun {
    /// `true` when every coverable tag was served.
    pub fn complete(&self) -> bool {
        self.abandoned_tags.is_empty()
    }
}

/// Runs the greedy covering-schedule loop with a caller-provided
/// one-shot scheduler. This is the single entry point for strict,
/// fallible and resilient runs alike; the pre-0.1
/// `greedy`/`try_greedy`/`resilient_covering_schedule` triple it
/// replaced has been removed.
///
/// Under [`FaultPolicy::Strict`] a stalled or over-budget run returns a
/// [`ScheduleError`]; under [`FaultPolicy::Resilient`] it never errors —
/// unreachable tags are reported in [`McsRun::abandoned_tags`].
///
/// ```
/// use rfid_core::{covering_schedule_with, make_scheduler, AlgorithmKind, McsOptions};
/// use rfid_model::{interference::interference_graph, Coverage, Scenario};
/// let d = Scenario::paper_evaluation(14.0, 6.0).generate(7);
/// let coverage = Coverage::build(&d);
/// let graph = interference_graph(&d);
/// let mut scheduler = make_scheduler(AlgorithmKind::LocalGreedy, 0);
/// let run =
///     covering_schedule_with(&d, &coverage, &graph, scheduler.as_mut(), &McsOptions::new())
///         .unwrap();
/// // every coverable tag is read exactly once
/// assert_eq!(run.schedule.tags_served(), coverage.coverable_count());
/// ```
pub fn covering_schedule_with(
    deployment: &Deployment,
    coverage: &Coverage,
    graph: &Csr,
    scheduler: &mut dyn OneShotScheduler,
    options: &McsOptions<'_>,
) -> Result<McsRun, ScheduleError> {
    let sub = options.subscriber;
    let resilient = options.fault_policy == FaultPolicy::Resilient;
    let max_slots = options.budget();
    let _run_span = span!(sub, "mcs.covering_schedule");
    let mut unread = TagSet::all_unread(deployment.n_tags());
    let uncoverable: Vec<TagId> = (0..deployment.n_tags())
        .filter(|&t| !coverage.is_coverable(t))
        .collect();
    // Packed coverage rows + per-slot bitplanes: well-covered extraction
    // intersects `u64` words instead of walking per-tag coverage counts, and
    // the planes clear in `O(words touched last slot)`. Built once here and
    // reused for every slot; the warmup allocations are drained into
    // `mcs.alloc` up front so the per-slot histogram shows a flat zero.
    let mut rows = CoverageRows::build(coverage);
    let mut planes = PlaneScratch::new();
    planes.ensure(rows.n_words());
    let mut setup_allocs = planes.take_allocs();
    // Cross-slot incremental state: singleton weights are updated per
    // served tag (via `Coverage::readers_of`) instead of rescanned, feed
    // the one-shot schedulers through the input, and back the lazy
    // fallback queue.
    let mut singleton = SingletonWeights::new(coverage, &unread);
    // Readers that can still contribute anything, kept current alongside
    // the singleton array (weights only decrease, so `positives` only
    // shrinks — a retain per slot, never a rescan of all n). Passed to the
    // schedulers so their seed order costs O(|positives|) per slot.
    let mut positives: Vec<ReaderId> = (0..singleton.n_readers())
        .filter(|&v| singleton.get(v) > 0)
        .collect();
    let mut fallback_queue = LazyFallback::new(&singleton);
    // Live-row compaction state: rows shrink as tags get served (see
    // `CoverageRows::retain_unread`), so a reader activated in a late slot
    // no longer decodes row words whose tags were read ten slots ago. The
    // halving trigger bounds total compaction work at 2x the initial row
    // mass while keeping decode work proportional to *live* coverage.
    let mut live_incidences = rows.incidences();
    let mut retired_incidences = 0usize;
    // Any scratch the scheduler grew before this run belongs to setup, not
    // to the first slot.
    setup_allocs += scheduler.take_scratch_allocations();
    counter!(sub, "mcs.alloc", setup_allocs);
    let well_covered =
        |rows: &CoverageRows, planes: &mut PlaneScratch, active: &[ReaderId], unread: &TagSet| {
            planes.clear();
            planes.add_all(rows, active);
            let mut served = Vec::new();
            planes.well_covered_into(unread.words(), &mut served);
            served
        };
    let mut slots = Vec::new();
    let mut slot_metrics = Vec::new();
    let coverable_total = coverage.coverable_count();
    let mut served_total = 0usize;
    let mut repaired_pairs = 0usize;
    let mut crashed_dropped = 0usize;
    let mut stalled = false;
    while served_total < coverable_total && !stalled {
        if slots.len() >= max_slots {
            if resilient {
                break;
            }
            return Err(ScheduleError::SlotBudgetExhausted {
                max_slots,
                served: served_total,
                coverable: coverable_total,
            });
        }
        let slot_start = options.slot_metrics.then(Instant::now);
        let _slot_span = span!(sub, "mcs.slot");
        let mut input = OneShotInput::with_weights(
            deployment,
            coverage,
            graph,
            &unread,
            singleton.as_slice(),
            &positives,
        );
        input.subscriber = sub;
        let mut active = scheduler.schedule(&input);
        // Crashed readers cannot transmit; their claimed tags simply stay
        // unread and get requeued. Strict runs trust the scheduler and
        // skip the whole audit block.
        let crashed = if resilient {
            scheduler.crashed_readers()
        } else {
            Vec::new()
        };
        if resilient {
            if !crashed.is_empty() {
                let before = active.len();
                active.retain(|v| !crashed.contains(v));
                crashed_dropped += before - active.len();
                counter!(sub, "mcs.crashed_dropped", before - active.len());
            }
            // Audit-and-repair: break up every jammed pair by dropping its
            // lower-weight member until the activation is feasible.
            loop {
                let audit = audit_activation(deployment, coverage, &active, &unread);
                if audit.is_feasible() {
                    break;
                }
                let (a, b) = audit.rtc_pairs[0];
                let (wa, wb) = (singleton.get(a), singleton.get(b));
                let victim = if wa <= wb { a } else { b };
                active.retain(|&u| u != victim);
                repaired_pairs += 1;
                counter!(sub, "mcs.repaired_pairs", 1);
            }
        }
        let mut served = well_covered(&rows, &mut planes, &active, &unread);
        let mut fallback = false;
        if served.is_empty() {
            // Progress guard: the best singleton always serves ≥ 1 tag
            // when a coverable unread tag exists (restricted to surviving
            // readers under the resilient policy).
            match fallback_queue.best(&singleton, &crashed, sub) {
                Some(best) => {
                    active = vec![best];
                    served = well_covered(&rows, &mut planes, &active, &unread);
                    fallback = true;
                }
                None => served = Vec::new(),
            }
            if served.is_empty() {
                if resilient {
                    // Every remaining coverable tag is out of reach of
                    // the survivors: abandon instead of looping forever.
                    stalled = true;
                    continue;
                }
                return Err(ScheduleError::NoProgress {
                    served: served_total,
                    coverable: coverable_total,
                });
            }
        }
        // Observation only, by the §8 contract: nothing below feeds back
        // into the scheduling state.
        counter!(sub, "mcs.slots", 1);
        counter!(sub, "mcs.tags_served", served.len());
        // Scratch-growth account: arenas warm up in the first slot and then
        // stay flat — `mcs.slot.alloc` max == sum is the observable proof.
        let slot_allocs = scheduler.take_scratch_allocations() + planes.take_allocs();
        counter!(sub, "mcs.alloc", slot_allocs);
        histogram!(sub, "mcs.slot.alloc", slot_allocs);
        if fallback {
            counter!(sub, "mcs.fallback_slots", 1);
        }
        histogram!(sub, "mcs.slot.active_readers", active.len());
        histogram!(sub, "mcs.slot.tags_served", served.len());
        // Each served tag retires one `readers_of` incidence list from the
        // incremental singleton state — the delta-update work
        // `SingletonWeights::mark_all_read` is about to do, and the decay
        // signal that triggers live-row compaction below.
        let retired: usize = served.iter().map(|&t| coverage.readers_of(t).len()).sum();
        counter!(sub, "mcs.singleton_weight_deltas", retired);
        singleton.mark_all_read(&served, &mut unread);
        positives.retain(|&v| singleton.get(v) > 0);
        retired_incidences += retired;
        if retired_incidences * 2 >= live_incidences {
            live_incidences = rows.retain_unread(unread.words());
            retired_incidences = 0;
        }
        served_total += served.len();
        if let Some(start) = slot_start {
            slot_metrics.push(SlotMetrics {
                slot: slots.len(),
                active_readers: active.len(),
                tags_served: served.len(),
                fallback,
                wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        slots.push(SlotRecord {
            active,
            served,
            fallback,
        });
    }
    let abandoned_tags: Vec<TagId> = if resilient {
        (0..deployment.n_tags())
            .filter(|&t| coverage.is_coverable(t) && unread.is_unread(t))
            .collect()
    } else {
        // A strict run only reaches here with every coverable tag served.
        Vec::new()
    };
    counter!(sub, "mcs.abandoned_tags", abandoned_tags.len());
    Ok(McsRun {
        schedule: CoveringSchedule { slots, uncoverable },
        slot_metrics,
        repaired_pairs,
        crashed_dropped,
        abandoned_tags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactScheduler;
    use crate::hill_climbing::HillClimbing;
    use rfid_geometry::{Point, Rect};
    use rfid_model::interference::interference_graph;
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::RadiusModel;

    /// Strict run, panicking like the old `greedy_covering_schedule`.
    fn greedy(
        d: &Deployment,
        c: &Coverage,
        g: &Csr,
        s: &mut dyn OneShotScheduler,
        max_slots: usize,
    ) -> CoveringSchedule {
        covering_schedule_with(d, c, g, s, &McsOptions::new().max_slots(max_slots))
            .map(|run| run.schedule)
            .unwrap()
    }

    /// Strict run returning the error instead of panicking.
    fn try_greedy(
        d: &Deployment,
        c: &Coverage,
        g: &Csr,
        s: &mut dyn OneShotScheduler,
        max_slots: usize,
    ) -> Result<CoveringSchedule, ScheduleError> {
        covering_schedule_with(d, c, g, s, &McsOptions::new().max_slots(max_slots))
            .map(|run| run.schedule)
    }

    /// Resilient run through the unified entry point.
    fn resilient(
        d: &Deployment,
        c: &Coverage,
        g: &Csr,
        s: &mut dyn OneShotScheduler,
        max_slots: usize,
    ) -> McsRun {
        covering_schedule_with(
            d,
            c,
            g,
            s,
            &McsOptions::new().max_slots(max_slots).resilient(),
        )
        .expect("resilient runs never error")
    }

    fn small_scenario(seed: u64) -> Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 12,
            n_tags: 120,
            region_side: 60.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 10.0,
                lambda_interrogation: 5.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn schedule_reads_every_coverable_tag_exactly_once() {
        for seed in 0..4 {
            let d = small_scenario(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let mut s = ExactScheduler::default();
            let sched = greedy(&d, &c, &g, &mut s, 10_000);
            let mut all_served: Vec<TagId> =
                sched.slots.iter().flat_map(|s| s.served.clone()).collect();
            all_served.sort_unstable();
            let mut expect: Vec<TagId> = (0..d.n_tags()).filter(|&t| c.is_coverable(t)).collect();
            expect.sort_unstable();
            assert_eq!(all_served, expect, "seed {seed}");
            assert_eq!(
                sched.uncoverable.len(),
                d.n_tags() - expect.len(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn every_slot_is_feasible() {
        let d = small_scenario(7);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut s = HillClimbing::default();
        let sched = greedy(&d, &c, &g, &mut s, 10_000);
        for slot in &sched.slots {
            assert!(d.is_feasible(&slot.active));
            assert!(!slot.served.is_empty(), "every slot must serve something");
        }
    }

    #[test]
    fn better_oneshot_never_needs_more_slots_much() {
        // Not a theorem (greedy is only log n-approx), but on these small
        // instances the exact one-shot should not lose to hill climbing.
        let mut exact_total = 0usize;
        let mut ghc_total = 0usize;
        for seed in 0..4 {
            let d = small_scenario(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            exact_total += greedy(&d, &c, &g, &mut ExactScheduler::default(), 10_000).size();
            ghc_total += greedy(&d, &c, &g, &mut HillClimbing::default(), 10_000).size();
        }
        assert!(
            exact_total <= ghc_total,
            "exact {exact_total} slots vs GHC {ghc_total}"
        );
    }

    /// A scheduler that always returns nothing: the fallback must carry the
    /// schedule to completion.
    struct Lazy;
    impl OneShotScheduler for Lazy {
        fn schedule(&mut self, _input: &OneShotInput<'_>) -> Vec<ReaderId> {
            Vec::new()
        }
    }

    #[test]
    fn fallback_guard_completes_the_schedule() {
        let d = small_scenario(1);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let sched = greedy(&d, &c, &g, &mut Lazy, 10_000);
        assert_eq!(sched.fallback_slots(), sched.size());
        assert_eq!(
            sched.tags_served(),
            c.coverable_count(),
            "fallback-only schedule still reads everything"
        );
    }

    #[test]
    fn try_form_matches_the_panicking_form() {
        let d = small_scenario(3);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let a = greedy(&d, &c, &g, &mut ExactScheduler::default(), 10_000);
        let b = try_greedy(&d, &c, &g, &mut ExactScheduler::default(), 10_000)
            .expect("clean run must succeed");
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_slot_budget_is_an_error_not_a_panic() {
        let d = small_scenario(0);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let err = try_greedy(&d, &c, &g, &mut ExactScheduler::default(), 1).unwrap_err();
        match err {
            ScheduleError::SlotBudgetExhausted {
                max_slots,
                served,
                coverable,
            } => {
                assert_eq!(max_slots, 1);
                assert!(served > 0 && served < coverable);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn resilient_matches_greedy_on_a_clean_scheduler() {
        let d = small_scenario(2);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let clean = greedy(&d, &c, &g, &mut ExactScheduler::default(), 10_000);
        let res = resilient(&d, &c, &g, &mut ExactScheduler::default(), 10_000);
        assert_eq!(res.schedule, clean);
        assert_eq!(res.repaired_pairs, 0);
        assert_eq!(res.crashed_dropped, 0);
        assert!(res.complete());
    }

    /// A scheduler that activates *everything* — maximally infeasible.
    struct Reckless;
    impl OneShotScheduler for Reckless {
        fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
            (0..input.deployment.n_readers()).collect()
        }
    }

    #[test]
    fn resilient_repairs_infeasible_activations() {
        let d = small_scenario(1);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        assert!(g.m() > 0, "scenario must have interference to repair");
        let res = resilient(&d, &c, &g, &mut Reckless, 10_000);
        assert!(res.repaired_pairs > 0, "nothing was repaired");
        assert!(res.complete(), "abandoned {:?}", res.abandoned_tags);
        for slot in &res.schedule.slots {
            assert!(d.is_feasible(&slot.active), "unrepaired slot {slot:?}");
        }
        assert_eq!(res.schedule.tags_served(), c.coverable_count());
    }

    /// A scheduler whose reader 0 has crashed: it still *claims* reader 0
    /// in every activation, so the resilient loop must strip it.
    struct HalfDead;
    impl OneShotScheduler for HalfDead {
        fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
            (0..input.deployment.n_readers()).collect()
        }
        fn crashed_readers(&self) -> Vec<ReaderId> {
            vec![0]
        }
    }

    #[test]
    fn crashed_readers_are_dropped_and_their_tags_requeued() {
        let d = small_scenario(1);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let res = resilient(&d, &c, &g, &mut HalfDead, 10_000);
        assert!(res.crashed_dropped > 0);
        for slot in &res.schedule.slots {
            assert!(
                !slot.active.contains(&0),
                "crashed reader activated: {slot:?}"
            );
        }
        // Tags only reader 0 covers are abandoned; every other coverable
        // tag must still be served (requeued until a survivor reads it).
        let exclusive_to_0: Vec<TagId> = (0..d.n_tags())
            .filter(|&t| c.readers_of(t) == [0])
            .collect();
        assert_eq!(res.abandoned_tags, exclusive_to_0);
        assert_eq!(
            res.schedule.tags_served() + exclusive_to_0.len(),
            c.coverable_count()
        );
    }

    #[test]
    fn resilient_abandons_on_budget_instead_of_panicking() {
        let d = small_scenario(0);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let res = resilient(&d, &c, &g, &mut ExactScheduler::default(), 1);
        assert_eq!(res.schedule.size(), 1);
        assert!(!res.complete());
        assert_eq!(
            res.schedule.tags_served() + res.abandoned_tags.len(),
            c.coverable_count()
        );
    }

    #[test]
    fn slot_metrics_reconcile_with_schedule_totals() {
        let d = small_scenario(3);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let run = covering_schedule_with(
            &d,
            &c,
            &g,
            &mut HillClimbing::default(),
            &McsOptions::new().max_slots(10_000).slot_metrics(true),
        )
        .unwrap();
        assert_eq!(run.slot_metrics.len(), run.schedule.size());
        let served: usize = run.slot_metrics.iter().map(|m| m.tags_served).sum();
        assert_eq!(served, run.schedule.tags_served());
        let fallbacks = run.slot_metrics.iter().filter(|m| m.fallback).count();
        assert_eq!(fallbacks, run.schedule.fallback_slots());
        for (i, m) in run.slot_metrics.iter().enumerate() {
            assert_eq!(m.slot, i);
            assert_eq!(m.active_readers, run.schedule.slots[i].active.len());
            assert_eq!(m.tags_served, run.schedule.slots[i].served.len());
            assert_eq!(m.fallback, run.schedule.slots[i].fallback);
        }
    }

    #[test]
    fn attached_recorder_does_not_change_the_schedule() {
        let d = small_scenario(2);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let plain = greedy(&d, &c, &g, &mut HillClimbing::default(), 10_000);
        let rec = rfid_obs::Recorder::new();
        let observed = covering_schedule_with(
            &d,
            &c,
            &g,
            &mut HillClimbing::default(),
            &McsOptions::new().max_slots(10_000).subscriber(&rec),
        )
        .unwrap();
        assert_eq!(observed.schedule, plain);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mcs.slots"), plain.size() as u64);
        assert_eq!(snap.counter("mcs.tags_served"), plain.tags_served() as u64);
        assert_eq!(
            snap.counter("mcs.fallback_slots"),
            plain.fallback_slots() as u64
        );
        assert_eq!(snap.spans["mcs.covering_schedule"].count, 1);
        assert_eq!(snap.spans["mcs.slot"].count, plain.size() as u64);
    }

    #[test]
    fn no_tags_no_slots() {
        let d = Deployment::new(
            Rect::square(10.0),
            vec![Point::new(5.0, 5.0)],
            vec![2.0],
            vec![1.0],
            vec![],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let sched = greedy(&d, &c, &g, &mut ExactScheduler::default(), 10);
        assert_eq!(sched.size(), 0);
        assert!(sched.uncoverable.is_empty());
    }

    #[test]
    fn uncoverable_tags_reported_not_served() {
        let d = Deployment::new(
            Rect::square(30.0),
            vec![Point::new(5.0, 5.0)],
            vec![4.0],
            vec![2.0],
            vec![Point::new(5.0, 6.0), Point::new(25.0, 25.0)],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let sched = greedy(&d, &c, &g, &mut ExactScheduler::default(), 10);
        assert_eq!(sched.size(), 1);
        assert_eq!(sched.uncoverable, vec![1]);
        assert_eq!(sched.tags_served(), 1);
    }
}
