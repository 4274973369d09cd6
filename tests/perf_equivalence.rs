//! Differential equivalence tests for the performance work (DESIGN.md §7).
//!
//! The lazy-greedy MCS engine (incremental singleton weights, lazy
//! fallback queue, scratch reuse, sorted seed cursors) is required to be
//! **bit-identical** to the original eager per-slot rescan semantics.
//! These tests pin that contract:
//!
//! * a from-scratch reference implementation of the covering-schedule
//!   loops (fresh evaluator and `O(n)` `max_by_key` fallback scan every
//!   slot, no precomputed singleton weights) must produce *equal*
//!   `CoveringSchedule` / `McsRun` values across random deployments,
//!   radius mixes, schedulers and crash sets;
//! * every scheduler must return the same set with and without the
//!   driver-provided singleton weights attached to its input;
//! * the packed-bitset extraction layer ([`CoverageRows`]/[`PlaneScratch`])
//!   must serve exactly the eager [`WeightEvaluator`]'s well-covered tags,
//!   in either plane mode and after live-row compaction;
//! * per-slot scratch allocation must be *flat*: the `mcs.alloc` feed
//!   shows warmup confined to the first slot and zero on a warm rerun,
//!   including on the resilient audit/repair path.

use proptest::prelude::*;
use rfid_core::{
    covering_schedule_with, make_scheduler, AlgorithmKind, AliveSet, BallScratch, CoveringSchedule,
    McsOptions, McsRun, OneShotInput, OneShotScheduler, ScheduleError, SlotRecord,
};
use rfid_graph::Csr;
use rfid_model::interference::interference_graph;
use rfid_model::scenario::{Scenario, ScenarioKind};
use rfid_model::{
    all_singleton_weights, audit_activation, singleton_weight, Coverage, CoverageRows, Deployment,
    PlaneScratch, RadiusModel, ReaderId, TagId, TagSet, WeightEvaluator,
};

/// The tags `planes` serves against `unread`, ascending.
fn extract(planes: &mut PlaneScratch, unread: &TagSet) -> Vec<TagId> {
    let mut out = Vec::new();
    planes.well_covered_into(unread.words(), &mut out);
    out
}

fn scenario(n_readers: usize, li: f64, lr: f64) -> Scenario {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers,
        n_tags: n_readers * 8,
        region_side: 22.0 * (n_readers as f64).sqrt(),
        radius_model: RadiusModel::PoissonPair {
            lambda_interference: li,
            lambda_interrogation: lr,
        },
    }
}

/// The pre-optimisation greedy loop, verbatim semantics: fresh weight
/// evaluator each slot, eager `max_by_key` fallback over all readers.
fn reference_covering_schedule(
    deployment: &Deployment,
    coverage: &Coverage,
    graph: &Csr,
    scheduler: &mut dyn OneShotScheduler,
    max_slots: usize,
) -> Result<CoveringSchedule, ScheduleError> {
    let mut unread = TagSet::all_unread(deployment.n_tags());
    let uncoverable: Vec<TagId> = (0..deployment.n_tags())
        .filter(|&t| !coverage.is_coverable(t))
        .collect();
    let mut slots = Vec::new();
    let coverable_total = coverage.coverable_count();
    let mut served_total = 0usize;
    while served_total < coverable_total {
        if slots.len() >= max_slots {
            return Err(ScheduleError::SlotBudgetExhausted {
                max_slots,
                served: served_total,
                coverable: coverable_total,
            });
        }
        let mut weights = WeightEvaluator::new(coverage);
        let input = OneShotInput::new(deployment, coverage, graph, &unread);
        let mut active = scheduler.schedule(&input);
        let mut served = weights.well_covered(&active, &unread);
        let mut fallback = false;
        if served.is_empty() {
            let stall = ScheduleError::NoProgress {
                served: served_total,
                coverable: coverable_total,
            };
            let best = (0..deployment.n_readers())
                .max_by_key(|&v| (singleton_weight(coverage, v, &unread), std::cmp::Reverse(v)))
                .ok_or(stall.clone())?;
            active = vec![best];
            served = weights.well_covered(&active, &unread);
            fallback = true;
            if served.is_empty() {
                return Err(stall);
            }
        }
        unread.mark_all_read(&served);
        served_total += served.len();
        slots.push(SlotRecord {
            active,
            served,
            fallback,
        });
    }
    Ok(CoveringSchedule { slots, uncoverable })
}

/// The optimized strict engine through the unified entry point, shaped
/// like the reference for direct comparison.
fn engine_schedule(
    deployment: &Deployment,
    coverage: &Coverage,
    graph: &Csr,
    scheduler: &mut dyn OneShotScheduler,
    max_slots: usize,
) -> Result<CoveringSchedule, ScheduleError> {
    covering_schedule_with(
        deployment,
        coverage,
        graph,
        scheduler,
        &McsOptions::new().max_slots(max_slots),
    )
    .map(|run| run.schedule)
}

/// The optimized resilient engine through the unified entry point.
fn engine_resilient(
    deployment: &Deployment,
    coverage: &Coverage,
    graph: &Csr,
    scheduler: &mut dyn OneShotScheduler,
    max_slots: usize,
) -> McsRun {
    covering_schedule_with(
        deployment,
        coverage,
        graph,
        scheduler,
        &McsOptions::new().max_slots(max_slots).resilient(),
    )
    .expect("resilient runs cannot fail")
}

/// The pre-optimisation resilient loop, verbatim semantics, shaped like
/// the engine's `McsRun` (no per-slot metrics requested).
fn reference_resilient(
    deployment: &Deployment,
    coverage: &Coverage,
    graph: &Csr,
    scheduler: &mut dyn OneShotScheduler,
    max_slots: usize,
) -> McsRun {
    let mut unread = TagSet::all_unread(deployment.n_tags());
    let uncoverable: Vec<TagId> = (0..deployment.n_tags())
        .filter(|&t| !coverage.is_coverable(t))
        .collect();
    let mut slots = Vec::new();
    let coverable_total = coverage.coverable_count();
    let mut served_total = 0usize;
    let mut repaired_pairs = 0usize;
    let mut crashed_dropped = 0usize;
    let mut stalled = false;
    while served_total < coverable_total && !stalled && slots.len() < max_slots {
        let mut weights = WeightEvaluator::new(coverage);
        let input = OneShotInput::new(deployment, coverage, graph, &unread);
        let mut active = scheduler.schedule(&input);
        let crashed = scheduler.crashed_readers();
        if !crashed.is_empty() {
            let before = active.len();
            active.retain(|v| !crashed.contains(v));
            crashed_dropped += before - active.len();
        }
        loop {
            let audit = audit_activation(deployment, coverage, &active, &unread);
            if audit.is_feasible() {
                break;
            }
            let (a, b) = audit.rtc_pairs[0];
            let (wa, wb) = (
                singleton_weight(coverage, a, &unread),
                singleton_weight(coverage, b, &unread),
            );
            let victim = if wa <= wb { a } else { b };
            active.retain(|&u| u != victim);
            repaired_pairs += 1;
        }
        let mut served = weights.well_covered(&active, &unread);
        let mut fallback = false;
        if served.is_empty() {
            let best = (0..deployment.n_readers())
                .filter(|v| !crashed.contains(v))
                .max_by_key(|&v| (singleton_weight(coverage, v, &unread), std::cmp::Reverse(v)));
            match best {
                Some(best) => {
                    active = vec![best];
                    served = weights.well_covered(&active, &unread);
                    fallback = true;
                }
                None => served = Vec::new(),
            }
            if served.is_empty() {
                stalled = true;
                continue;
            }
        }
        unread.mark_all_read(&served);
        served_total += served.len();
        slots.push(SlotRecord {
            active,
            served,
            fallback,
        });
    }
    let abandoned_tags: Vec<TagId> = (0..deployment.n_tags())
        .filter(|&t| coverage.is_coverable(t) && unread.is_unread(t))
        .collect();
    McsRun {
        schedule: CoveringSchedule { slots, uncoverable },
        slot_metrics: Vec::new(),
        repaired_pairs,
        crashed_dropped,
        abandoned_tags,
    }
}

/// Wraps a scheduler with a fixed crash-stop set (claimed readers stay in
/// the returned activation — the loop must strip them).
struct Crashy {
    inner: Box<dyn OneShotScheduler>,
    crashed: Vec<ReaderId>,
}

impl OneShotScheduler for Crashy {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        self.inner.schedule(input)
    }
    fn crashed_readers(&self) -> Vec<ReaderId> {
        self.crashed.clone()
    }
    fn take_scratch_allocations(&mut self) -> u64 {
        self.inner.take_scratch_allocations()
    }
}

/// A scheduler that never proposes anything, driving every slot through
/// the fallback queue — maximal stress for the lazy heap.
struct Silent;

impl OneShotScheduler for Silent {
    fn schedule(&mut self, _input: &OneShotInput<'_>) -> Vec<ReaderId> {
        Vec::new()
    }
}

const KINDS: [AlgorithmKind; 4] = [
    AlgorithmKind::LocalGreedy,
    AlgorithmKind::HillClimbing,
    AlgorithmKind::Colorwave,
    AlgorithmKind::Ptas,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole contract: the lazy-greedy engine reproduces the eager
    /// reference schedule bit for bit, across deployments, radius mixes
    /// and schedulers.
    #[test]
    fn lazy_engine_matches_eager_reference(
        seed in 0u64..1000,
        n_readers in 8usize..36,
        li in 8u32..18,
        lr in 4u32..9,
        kind_idx in 0usize..KINDS.len(),
    ) {
        let kind = KINDS[kind_idx];
        let d = scenario(n_readers, f64::from(li), f64::from(lr)).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let reference =
            reference_covering_schedule(&d, &c, &g, make_scheduler(kind, seed).as_mut(), 10_000);
        let optimized =
            engine_schedule(&d, &c, &g, make_scheduler(kind, seed).as_mut(), 10_000);
        prop_assert_eq!(reference, optimized, "{:?} seed {}", kind, seed);
    }

    /// Same contract for the crash-tolerant loop, across random crash
    /// sets (including readers the inner scheduler keeps claiming).
    #[test]
    fn resilient_engine_matches_eager_reference(
        seed in 0u64..1000,
        n_readers in 8usize..30,
        li in 8u32..16,
        lr in 4u32..8,
        kind_idx in 0usize..KINDS.len(),
        crashed in proptest::collection::vec(0usize..30, 0..6),
    ) {
        let kind = KINDS[kind_idx];
        let d = scenario(n_readers, f64::from(li), f64::from(lr)).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let crashed: Vec<ReaderId> = crashed.into_iter().map(|v| v % n_readers).collect();
        let mut a = Crashy { inner: make_scheduler(kind, seed), crashed: crashed.clone() };
        let mut b = Crashy { inner: make_scheduler(kind, seed), crashed };
        let reference = reference_resilient(&d, &c, &g, &mut a, 5_000);
        let optimized = engine_resilient(&d, &c, &g, &mut b, 5_000);
        prop_assert_eq!(reference, optimized, "{:?} seed {}", kind, seed);
    }

    /// Fallback-only runs exercise the lazy queue on every slot.
    #[test]
    fn fallback_only_runs_match(
        seed in 0u64..1000,
        n_readers in 2usize..24,
        lr in 3u32..9,
    ) {
        let d = scenario(n_readers, 12.0, f64::from(lr)).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let reference = reference_covering_schedule(&d, &c, &g, &mut Silent, 100_000);
        let optimized = engine_schedule(&d, &c, &g, &mut Silent, 100_000);
        prop_assert_eq!(&reference, &optimized);
        let sched = optimized.unwrap();
        prop_assert_eq!(sched.fallback_slots(), sched.size());
    }

    /// Schedulers must not change their answer when the driver hands them
    /// precomputed singleton weights.
    #[test]
    fn singleton_weights_do_not_change_schedules(
        seed in 0u64..1000,
        n_readers in 8usize..36,
        read_tags in proptest::collection::vec(0usize..200, 0..40),
        kind_idx in 0usize..KINDS.len(),
    ) {
        let kind = KINDS[kind_idx];
        let d = scenario(n_readers, 13.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut unread = TagSet::all_unread(d.n_tags());
        for t in read_tags {
            unread.mark_read(t % d.n_tags());
        }
        let singleton = all_singleton_weights(&c, &unread);
        let positive: Vec<ReaderId> = (0..singleton.len()).filter(|&v| singleton[v] > 0).collect();
        let plain = OneShotInput::new(&d, &c, &g, &unread);
        let hinted = OneShotInput::with_weights(&d, &c, &g, &unread, &singleton, &positive);
        let a = make_scheduler(kind, seed).schedule(&plain);
        let b = make_scheduler(kind, seed).schedule(&hinted);
        prop_assert_eq!(a, b, "{:?} seed {}", kind, seed);
    }

    /// The packed-bitset layer serves exactly what the eager per-tag
    /// evaluator calls well covered (same tags, same order), so its
    /// weight is the served count.
    #[test]
    fn bitset_layer_matches_eager_evaluator(
        seed in 0u64..1000,
        n_readers in 4usize..32,
        read_tags in proptest::collection::vec(0usize..300, 0..60),
        active_sel in proptest::collection::vec(0usize..32, 0..10),
    ) {
        let d = scenario(n_readers, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let mut unread = TagSet::all_unread(d.n_tags());
        for t in read_tags {
            unread.mark_read(t % d.n_tags());
        }
        let mut active: Vec<ReaderId> =
            active_sel.into_iter().map(|v| v % n_readers).collect();
        active.sort_unstable();
        active.dedup();
        let rows = CoverageRows::build(&c);
        let mut planes = PlaneScratch::new();
        planes.ensure(rows.n_words());
        for &v in &active {
            planes.add(&rows, v);
        }
        let mut eager = WeightEvaluator::new(&c);
        let served = extract(&mut planes, &unread);
        prop_assert_eq!(&served, &eager.well_covered(&active, &unread));
        prop_assert_eq!(served.len(), eager.weight(&active, &unread));
    }

    /// Live-row compaction is invisible downstream: planes built from
    /// rows compacted against *any* intermediate unread snapshot extract
    /// the eager evaluator's well-covered set against the current unread
    /// words, as planes built from the pristine rows do — the positions a
    /// compaction drops are exactly the ones the final intersection
    /// zeroes. Compacted rows must also stay structurally sound (counts
    /// match popcounts, incidences shrink monotonically).
    #[test]
    fn row_compaction_never_changes_extraction(
        seed in 0u64..1000,
        n_readers in 4usize..32,
        early_read in proptest::collection::vec(0usize..300, 0..80),
        late_read in proptest::collection::vec(0usize..300, 0..80),
        active_sel in proptest::collection::vec(0usize..32, 0..12),
    ) {
        let d = scenario(n_readers, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        // Snapshot the compaction happens against…
        let mut snapshot = TagSet::all_unread(d.n_tags());
        for &t in &early_read {
            snapshot.mark_read(t % d.n_tags());
        }
        // …and the (further-read) unread set extraction runs against.
        let mut now = snapshot.clone();
        for &t in &late_read {
            now.mark_read(t % d.n_tags());
        }
        let mut active: Vec<ReaderId> =
            active_sel.into_iter().map(|v| v % n_readers).collect();
        active.sort_unstable();
        active.dedup();
        let pristine = CoverageRows::build(&c);
        let mut compacted = pristine.clone();
        let before = compacted.incidences();
        let live = compacted.retain_unread(snapshot.words());
        prop_assert_eq!(live, compacted.incidences(), "returned live count must match");
        prop_assert!(live <= before, "compaction can only shrink");
        let served = |rows: &CoverageRows| {
            let mut planes = PlaneScratch::new();
            planes.ensure(rows.n_words());
            planes.add_all(rows, &active);
            extract(&mut planes, &now)
        };
        let mut eager = WeightEvaluator::new(&c);
        let expect = eager.well_covered(&active, &now);
        prop_assert_eq!(expect.len(), eager.weight(&active, &now));
        prop_assert_eq!(&served(&pristine), &expect);
        prop_assert_eq!(&served(&compacted), &expect);
    }

    /// The radius-0/1 fast paths of `ball_into` agree with the generic
    /// BFS on the same alive-restricted graph, and with a from-scratch
    /// reference BFS at every radius.
    #[test]
    fn hop_balls_match_reference_bfs(
        seed in 0u64..1000,
        n_readers in 4usize..40,
        dead_sel in proptest::collection::vec(0usize..40, 0..20),
        r in 0u32..4,
    ) {
        let d = scenario(n_readers, 14.0, 6.0).generate(seed);
        let g = interference_graph(&d);
        let mut alive = AliveSet::all_alive(n_readers);
        for v in dead_sel {
            alive.kill(v % n_readers);
        }
        let mut balls = BallScratch::new(n_readers);
        let mut out = Vec::new();
        for src in 0..n_readers {
            if !alive.get(src) {
                continue;
            }
            // Reference: textbook BFS over the alive-induced subgraph.
            let mut dist = vec![u32::MAX; n_readers];
            dist[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(v) = queue.pop_front() {
                if dist[v] == r {
                    continue;
                }
                for &t in g.neighbors(v) {
                    let t = t as usize;
                    if alive.get(t) && dist[t] == u32::MAX {
                        dist[t] = dist[v] + 1;
                        queue.push_back(t);
                    }
                }
            }
            let expect: Vec<usize> =
                (0..n_readers).filter(|&v| dist[v] != u32::MAX).collect();
            balls.ball_into(&g, src, r, &alive, &mut out);
            prop_assert_eq!(&out, &expect, "src {} r {}", src, r);
        }
    }

    /// Dense mode is a strategy, not a semantics: a heavy activation,
    /// which `add_all` adds in dense mode, and per-reader sparse adds
    /// both serve the eager evaluator's well-covered tags, and one scratch
    /// cleared out of either mode serves like a fresh one.
    #[test]
    fn dense_and_sparse_plane_modes_agree(
        seed in 0u64..1000,
        n_readers in 4usize..32,
        active_sel in proptest::collection::vec(0usize..32, 0..12),
        read_tags in proptest::collection::vec(0usize..300, 0..60),
    ) {
        let d = scenario(n_readers, 12.0, 6.0).generate(seed);
        let c = Coverage::build(&d);
        let rows = CoverageRows::build(&c);
        let mut unread = TagSet::all_unread(d.n_tags());
        for t in read_tags {
            unread.mark_read(t % d.n_tags());
        }
        let mut active: Vec<ReaderId> =
            active_sel.into_iter().map(|v| v % n_readers).collect();
        active.sort_unstable();
        active.dedup();
        // Every reader at once: its row mass reaches half the plane, the
        // threshold at which `add_all` switches to dense mode.
        let heavy: Vec<ReaderId> = (0..n_readers).collect();
        let mass: usize = heavy.iter().map(|&v| rows.row_words(v)).sum();
        prop_assert!(mass >= rows.n_words() / 2, "activation is not heavy");
        let mut eager = WeightEvaluator::new(&c);
        let (want_heavy, want_active) =
            (eager.well_covered(&heavy, &unread), eager.well_covered(&active, &unread));
        let mut planes = PlaneScratch::new();
        planes.ensure(rows.n_words());
        for round in 0..2 {
            planes.add_all(&rows, &heavy);
            prop_assert_eq!(&extract(&mut planes, &unread), &want_heavy, "dense, round {}", round);
            planes.clear();
            for &v in &active {
                planes.add(&rows, v);
            }
            prop_assert_eq!(&extract(&mut planes, &unread), &want_active, "sparse, round {}", round);
            planes.clear();
        }
    }
}

/// Per-slot scratch allocation must be flat, observed through the
/// `mcs.slot.alloc` histogram on the resilient (audit + crash-strip)
/// path: warmup confined to the first slot of a cold run, zero on every
/// slot of a warm rerun — and the warm rerun byte-identical.
#[test]
fn scratch_allocation_is_flat_across_slots_on_the_resilient_path() {
    let d = scenario(24, 12.0, 6.0).generate(9);
    let c = Coverage::build(&d);
    let g = interference_graph(&d);
    let mut s = Crashy {
        inner: Box::new(rfid_core::LocalGreedy::default()),
        crashed: vec![1, 3],
    };
    let rec = rfid_obs::Recorder::new();
    let run = covering_schedule_with(
        &d,
        &c,
        &g,
        &mut s,
        &McsOptions::new()
            .max_slots(10_000)
            .resilient()
            .subscriber(&rec),
    )
    .unwrap();
    assert!(
        run.schedule.size() > 1,
        "need multiple slots to audit flatness"
    );
    let snap = rec.snapshot();
    let h = &snap.histograms["mcs.slot.alloc"];
    assert_eq!(h.count, run.schedule.size() as u64);
    assert!(h.sum > 0, "a cold scheduler must warm its arena");
    assert_eq!(
        h.max, h.sum,
        "scratch growth must be confined to a single (the first) slot"
    );
    assert!(
        snap.counter("mcs.alloc") >= h.sum,
        "the mcs.alloc counter covers setup plus every slot"
    );
    // Warm rerun: same scheduler instance, fresh recorder.
    let rec2 = rfid_obs::Recorder::new();
    let rerun = covering_schedule_with(
        &d,
        &c,
        &g,
        &mut s,
        &McsOptions::new()
            .max_slots(10_000)
            .resilient()
            .subscriber(&rec2),
    )
    .unwrap();
    assert_eq!(
        rerun.schedule, run.schedule,
        "warm rerun must be byte-identical"
    );
    let h2 = &rec2.snapshot().histograms["mcs.slot.alloc"];
    assert_eq!(h2.sum, 0, "a warm scheduler must not allocate in any slot");
}

/// Non-property pin: one mid-sized paper-default instance per scheduler,
/// engine vs reference, so a plain `cargo test` exercises the contract
/// even with a proptest stub that draws few cases.
#[test]
fn paper_default_instances_match_reference() {
    for kind in KINDS {
        for seed in [1u64, 7, 42] {
            let d = Scenario::paper_evaluation(14.0, 6.0).generate(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let reference = reference_covering_schedule(
                &d,
                &c,
                &g,
                make_scheduler(kind, seed).as_mut(),
                10_000,
            );
            let optimized =
                engine_schedule(&d, &c, &g, make_scheduler(kind, seed).as_mut(), 10_000);
            assert_eq!(reference, optimized, "{kind:?} seed {seed}");
        }
    }
}
