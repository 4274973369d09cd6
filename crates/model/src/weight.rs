//! The weight function `w(X)` (paper Definition 3): one singleton-weight
//! function, one batch evaluator and one incremental engine.
//!
//! For a *feasible* scheduling set `X`, `w(X)` is the number of unread tags
//! located in the interrogation region of **exactly one** reader of `X`:
//! tags in overlapping regions are excluded (RRc), and feasibility already
//! rules out RTc. The weight is famously *not additive* —
//! `w(X₁ ∪ X₂) ≤ w(X₁) + w(X₂)` — which is exactly what makes the paper's
//! MWFS search harder than classic maximum-weight independent set.
//!
//! * [`singleton_weight`] (and [`all_singleton_weights`] for every reader)
//!   is `w({v})`: the seed order of Algorithms 2/3, the exact search's
//!   bound keys and the greedy baselines' first gains.
//! * [`WeightEvaluator`] scores a whole set in `O(Σ_{v∈X} |tags(v)|)` with
//!   a stamped scratch array (no per-call allocation).
//! * [`IncrementalCore`] maintains an active set under add/remove/peek in
//!   `O(|tags(v)|)` per operation, which is what the Greedy Hill-Climbing
//!   baseline, the PTAS augmentation, the local search and the exact
//!   branch and bound iterate on. It borrows nothing — every call takes
//!   the coverage table — so scheduler scratch persists across slots, and
//!   [`IncrementalCore::reset`] re-snapshots the unread set as a
//!   packed-word memcpy plus a stamp bump: `O(n_tags / 64)`, not
//!   `O(n_tags)`, which keeps per-slot setup flat on the n = 100k legs.
//! * [`SingletonWeights`] keeps every `w({v})` current across the slots of
//!   a covering schedule.

use crate::coverage::Coverage;
use crate::reader::ReaderId;
use crate::tag::{TagId, TagSet};

/// `w({v})`: every unread tag in `v`'s interrogation region.
pub fn singleton_weight(coverage: &Coverage, v: ReaderId, unread: &TagSet) -> usize {
    coverage
        .tags_of(v)
        .iter()
        .filter(|&&t| unread.is_unread(t as usize))
        .count()
}

/// [`singleton_weight`] of every reader, indexed by reader id.
pub fn all_singleton_weights(coverage: &Coverage, unread: &TagSet) -> Vec<usize> {
    (0..coverage.n_readers())
        .map(|v| singleton_weight(coverage, v, unread))
        .collect()
}

/// Batch evaluator for `w(X)` over a fixed coverage table.
///
/// Reusable: allocate once per (deployment, thread), call
/// [`weight`](Self::weight) many times. Per-tag cover counts are
/// stamp-invalidated, so consecutive evaluations of different sets never
/// pay a clear.
///
/// ```
/// use rfid_model::{Coverage, Scenario, TagSet, WeightEvaluator};
/// let d = Scenario::paper_evaluation(14.0, 6.0).generate(1);
/// let coverage = Coverage::build(&d);
/// let unread = TagSet::all_unread(d.n_tags());
/// let mut w = WeightEvaluator::new(&coverage);
/// // the weight is sub-additive: w(A ∪ B) ≤ w(A) + w(B)
/// let (a, b): (Vec<usize>, Vec<usize>) = ((0..25).collect(), (25..50).collect());
/// let all: Vec<usize> = (0..50).collect();
/// assert!(w.weight(&all, &unread) <= w.weight(&a, &unread) + w.weight(&b, &unread));
/// ```
#[derive(Debug, Clone)]
pub struct WeightEvaluator<'a> {
    coverage: &'a Coverage,
    /// Per-tag cover count for the set being evaluated, valid where
    /// `stamp_of[t] == stamp`.
    counts: Vec<u32>,
    stamp_of: Vec<u64>,
    stamp: u64,
}

impl<'a> WeightEvaluator<'a> {
    /// Creates an evaluator for one coverage table.
    pub fn new(coverage: &'a Coverage) -> Self {
        WeightEvaluator {
            coverage,
            counts: vec![0; coverage.n_tags()],
            stamp_of: vec![0; coverage.n_tags()],
            stamp: 0,
        }
    }

    #[inline]
    fn bump(&mut self, t: usize) -> u32 {
        if self.stamp_of[t] != self.stamp {
            self.stamp_of[t] = self.stamp;
            self.counts[t] = 1;
        } else {
            self.counts[t] += 1;
        }
        self.counts[t]
    }

    /// `w(X)` for a feasible set `X` against the given unread set.
    ///
    /// The caller is responsible for `X` being feasible (pairwise
    /// independent) — for infeasible sets this still returns the
    /// exactly-once-covered count, but that number is not Definition 3's
    /// weight (see `crate::collisions` for the general Definition 1 audit).
    pub fn weight(&mut self, set: &[ReaderId], unread: &TagSet) -> usize {
        self.stamp += 1;
        let mut exactly_once = 0usize;
        for &v in set {
            for &t in self.coverage.tags_of(v) {
                let t = t as usize;
                if !unread.is_unread(t) {
                    continue;
                }
                match self.bump(t) {
                    1 => exactly_once += 1,
                    2 => exactly_once -= 1,
                    _ => {}
                }
            }
        }
        exactly_once
    }

    /// The well-covered tags of a feasible set: unread tags covered by
    /// exactly one reader of `X`. Sorted ascending.
    pub fn well_covered(&mut self, set: &[ReaderId], unread: &TagSet) -> Vec<TagId> {
        self.stamp += 1;
        let mut candidates: Vec<TagId> = Vec::new();
        for &v in set {
            for &t in self.coverage.tags_of(v) {
                let t = t as usize;
                if unread.is_unread(t) && self.bump(t) == 1 {
                    candidates.push(t);
                }
            }
        }
        candidates.retain(|&t| self.counts[t] == 1);
        candidates.sort_unstable();
        candidates
    }
}

/// Incrementally maintained per-reader singleton weights `w({v})`.
///
/// The covering-schedule driver keeps one instance alive across slots:
/// after a slot serves tags `S`, [`mark_all_read`](Self::mark_all_read)
/// walks `S` and updates only the readers covering each newly-read tag
/// (via [`Coverage::readers_of`]) instead of rescanning every reader's
/// tag list. Because tags are only ever marked read, every entry is
/// monotonically non-increasing — the property that makes a lazily
/// updated priority queue over these weights valid (a cached entry is
/// always an upper bound on the current weight).
#[derive(Debug, Clone)]
pub struct SingletonWeights<'a> {
    coverage: &'a Coverage,
    weights: Vec<usize>,
}

impl<'a> SingletonWeights<'a> {
    /// [`all_singleton_weights`] under the current unread set —
    /// `O(Σ_v |tags(v)|)`, done once per covering schedule.
    pub fn new(coverage: &'a Coverage, unread: &TagSet) -> Self {
        SingletonWeights {
            coverage,
            weights: all_singleton_weights(coverage, unread),
        }
    }

    /// Current `w({v})`.
    #[inline]
    pub fn get(&self, v: ReaderId) -> usize {
        self.weights[v]
    }

    /// All current weights, indexed by reader id.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.weights
    }

    /// Number of readers tracked.
    pub fn n_readers(&self) -> usize {
        self.weights.len()
    }

    /// Marks `tags` read in `unread` — the set these weights were built
    /// from — and discounts each tag that was still unread from every
    /// reader covering it: the per-slot delta update. `unread` is the one
    /// record of what is read, so marking a tag twice is a no-op, as it is
    /// for [`TagSet::mark_read`].
    pub fn mark_all_read(&mut self, tags: &[TagId], unread: &mut TagSet) {
        for &t in tags {
            if unread.is_unread(t) {
                unread.mark_read(t);
                for &v in self.coverage.readers_of(t) {
                    self.weights[v as usize] -= 1;
                }
            }
        }
    }
}

/// `w(active)` under reader add/remove against a packed snapshot of the
/// unread set; every call takes the coverage table the core was reset
/// against.
///
/// Designed for cross-slot reuse: [`reset`](Self::reset) costs a word
/// memcpy of the unread snapshot plus `O(active)` teardown — counts are
/// stamp-invalidated, never cleared. One warm core serves every slot of a
/// covering schedule with zero allocations. Mutating the `TagSet` after a
/// reset does not reach the snapshot; reset again to pick it up.
#[derive(Debug, Clone, Default)]
pub struct IncrementalCore {
    /// Packed unread snapshot (same layout as [`TagSet::words`]).
    unread: Vec<u64>,
    /// Per-tag active-cover count, valid where `count_stamp[t] == stamp`.
    counts: Vec<u32>,
    count_stamp: Vec<u64>,
    stamp: u64,
    active: Vec<bool>,
    active_list: Vec<ReaderId>,
    weight: usize,
    /// Fresh heap allocations (buffer growth events) since the last
    /// [`take_allocs`](Self::take_allocs).
    allocs: u64,
}

impl IncrementalCore {
    /// An empty core; sized by the first [`reset`](Self::reset).
    pub fn new() -> Self {
        IncrementalCore::default()
    }

    /// Clears the active set and re-snapshots the unread tags.
    pub fn reset(&mut self, coverage: &Coverage, unread: &TagSet) {
        let words = unread.words();
        if self.unread.len() != words.len()
            || self.counts.len() != coverage.n_tags()
            || self.active.len() != coverage.n_readers()
        {
            self.unread = vec![0; words.len()];
            self.counts = vec![0; coverage.n_tags()];
            self.count_stamp = vec![0; coverage.n_tags()];
            self.stamp = 0;
            self.active = vec![false; coverage.n_readers()];
            self.allocs += 4;
        }
        self.unread.copy_from_slice(words);
        self.stamp += 1;
        for v in self.active_list.drain(..) {
            self.active[v] = false;
        }
        self.weight = 0;
    }

    /// Fresh heap allocations since the last call (the `mcs.alloc` feed).
    pub fn take_allocs(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Whether tag `t` was unread in the snapshot taken at the last
    /// [`reset`](Self::reset). Lets callers pre-filter coverage rows to
    /// the tags that can ever contribute weight under this snapshot.
    #[inline]
    pub fn is_unread(&self, t: usize) -> bool {
        self.unread[t / 64] >> (t % 64) & 1 == 1
    }

    #[inline]
    fn count(&self, t: usize) -> u32 {
        if self.count_stamp[t] == self.stamp {
            self.counts[t]
        } else {
            0
        }
    }

    #[inline]
    fn set_count(&mut self, t: usize, c: u32) {
        self.count_stamp[t] = self.stamp;
        self.counts[t] = c;
    }

    /// Current `w(active)`.
    #[inline]
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Current active readers in insertion order.
    pub fn active(&self) -> &[ReaderId] {
        &self.active_list
    }

    /// `true` iff `v` is active.
    pub fn is_active(&self, v: ReaderId) -> bool {
        self.active[v]
    }

    /// Weight change if `v` were added, without committing. On an empty
    /// active set this is `w({v})` under the snapshot.
    pub fn delta_if_added(&self, coverage: &Coverage, v: ReaderId) -> isize {
        debug_assert!(!self.active[v], "delta_if_added on active reader {v}");
        let mut delta = 0isize;
        for &t in coverage.tags_of(v) {
            let t = t as usize;
            if !self.is_unread(t) {
                continue;
            }
            match self.count(t) {
                0 => delta += 1,
                1 => delta -= 1,
                _ => {}
            }
        }
        delta
    }

    /// Adds `v` to the active set; returns the weight delta.
    pub fn add(&mut self, coverage: &Coverage, v: ReaderId) -> isize {
        self.add_reporting(coverage, v, |_, _| {})
    }

    /// As [`add`](Self::add), and calls `moved(w, change)` for every other
    /// reader `w` of each tag whose active-cover count the addition moves,
    /// with the change to `w`'s [`delta_if_added`](Self::delta_if_added):
    /// a tag going from 0 to 1 cover turns `w`'s +1 into −1 (−2), one
    /// going from 1 to 2 turns `w`'s −1 into 0 (+1). Summing the reports
    /// keeps every reader's delta current without rescanning it.
    pub fn add_reporting(
        &mut self,
        coverage: &Coverage,
        v: ReaderId,
        mut moved: impl FnMut(ReaderId, isize),
    ) -> isize {
        assert!(!self.active[v], "reader {v} already active");
        let before = self.weight as isize;
        for &t in coverage.tags_of(v) {
            let t = t as usize;
            if !self.is_unread(t) {
                continue;
            }
            let c = self.count(t) + 1;
            self.set_count(t, c);
            let change = match c {
                1 => {
                    self.weight += 1;
                    -2
                }
                2 => {
                    self.weight -= 1;
                    1
                }
                _ => continue,
            };
            for &w in coverage.readers_of(t) {
                if w as usize != v {
                    moved(w as usize, change);
                }
            }
        }
        self.active[v] = true;
        self.active_list.push(v);
        self.weight as isize - before
    }

    /// Removes `v`; returns the weight delta.
    pub fn remove(&mut self, coverage: &Coverage, v: ReaderId) -> isize {
        assert!(self.active[v], "reader {v} not active");
        let before = self.weight as isize;
        for &t in coverage.tags_of(v) {
            let t = t as usize;
            if !self.is_unread(t) {
                continue;
            }
            let c = self.count(t) - 1;
            self.set_count(t, c);
            match c {
                0 => self.weight -= 1,
                1 => self.weight += 1,
                _ => {}
            }
        }
        self.active[v] = false;
        self.active_list.retain(|&x| x != v);
        self.weight as isize - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use rfid_geometry::{Point, Rect};

    /// Figure-2 style deployment: three independent readers A, B, C where
    /// activating all three loses the overlap tags but {A, C} keeps them.
    fn figure2() -> (Deployment, Coverage) {
        // A at 0, B at 10, C at 20, interrogation radius 6 (A,C) and 7 (B).
        // Tags: 1 @ -3 (A only), 2 @ 5 (A+B), 3 @ 15 (B+C), 4 @ 23 (C only),
        // 5 @ 10 (B only).
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
        (d, c)
    }

    /// `w({v})` for every reader, counted from the geometry
    /// ([`Deployment::covers`]) rather than from the coverage table.
    fn covers_count(d: &Deployment, unread: &TagSet) -> Vec<usize> {
        (0..d.n_readers())
            .map(|v| {
                (0..d.n_tags())
                    .filter(|&t| d.covers(v, t) && unread.is_unread(t))
                    .count()
            })
            .collect()
    }

    /// An empty core snapshotting `unread`.
    fn core(c: &Coverage, unread: &TagSet) -> IncrementalCore {
        let mut inc = IncrementalCore::new();
        inc.reset(c, unread);
        inc
    }

    #[test]
    fn figure2_weights_match_paper_example() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut w = WeightEvaluator::new(&c);
        // All three active: tags 2 and 3 sit in overlaps → w = 3.
        assert_eq!(w.weight(&[0, 1, 2], &unread), 3);
        // Only A and C: every tag they cover is exclusive → w = 4.
        assert_eq!(w.weight(&[0, 2], &unread), 4);
        // Scheduling fewer readers reads more tags — the paper's Figure 2
        // moral.
        assert!(w.weight(&[0, 2], &unread) > w.weight(&[0, 1, 2], &unread));
    }

    #[test]
    fn well_covered_lists_exclusive_tags() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut w = WeightEvaluator::new(&c);
        assert_eq!(w.well_covered(&[0, 1, 2], &unread), vec![0, 3, 4]);
        assert_eq!(w.well_covered(&[0, 2], &unread), vec![0, 1, 2, 3]);
        assert_eq!(w.well_covered(&[], &unread), Vec::<usize>::new());
    }

    #[test]
    fn read_tags_stop_counting() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut w = WeightEvaluator::new(&c);
        unread.mark_all_read(&[0, 1]);
        assert_eq!(w.weight(&[0, 2], &unread), 2); // tags 2, 3 remain
        assert_eq!(singleton_weight(&c, 0, &unread), 0); // A covers only tags 0, 1 — both read
        assert_eq!(singleton_weight(&c, 1, &unread), 2); // B covers 1 (read), 2, 4
    }

    #[test]
    fn singleton_weight_counts_all_covered_unread() {
        let (d, c) = figure2();
        let unread = TagSet::all_unread(5);
        assert_eq!(singleton_weight(&c, 0, &unread), 2); // tags 0, 1
        assert_eq!(singleton_weight(&c, 1, &unread), 3); // tags 1, 2, 4
        assert_eq!(singleton_weight(&c, 2, &unread), 2); // tags 2, 3
        assert_eq!(all_singleton_weights(&c, &unread), vec![2, 3, 2]);
        assert_eq!(covers_count(&d, &unread), vec![2, 3, 2]);
    }

    #[test]
    fn evaluator_is_reusable_across_calls() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut w = WeightEvaluator::new(&c);
        for _ in 0..10 {
            assert_eq!(w.weight(&[0, 1, 2], &unread), 3);
            assert_eq!(w.weight(&[1], &unread), 3);
        }
    }

    #[test]
    fn incremental_matches_batch() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut batch = WeightEvaluator::new(&c);
        let mut inc = core(&c, &unread);
        assert_eq!(inc.weight(), 0);
        inc.add(&c, 0);
        assert_eq!(inc.weight(), batch.weight(&[0], &unread));
        inc.add(&c, 1);
        assert_eq!(inc.weight(), batch.weight(&[0, 1], &unread));
        inc.add(&c, 2);
        assert_eq!(inc.weight(), batch.weight(&[0, 1, 2], &unread));
        inc.remove(&c, 1);
        assert_eq!(inc.weight(), batch.weight(&[0, 2], &unread));
        assert_eq!(inc.active(), &[0, 2]);
    }

    #[test]
    fn peek_equals_commit_delta() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = core(&c, &unread);
        inc.add(&c, 0);
        let peek = inc.delta_if_added(&c, 1);
        let actual = inc.add(&c, 1);
        assert_eq!(peek, actual);
        // Adding B next to A costs the overlap tag: w {0} = 2 → w {0,1} = 3-?
        // A covers {0,1}; B covers {1,2,4}; overlap tag 1 → w = 1 + 2 = 3.
        assert_eq!(inc.weight(), 3);
    }

    #[test]
    fn add_remove_roundtrip_restores_weight() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = core(&c, &unread);
        inc.add(&c, 0);
        inc.add(&c, 2);
        let w = inc.weight();
        inc.add(&c, 1);
        inc.remove(&c, 1);
        assert_eq!(inc.weight(), w);
        assert_eq!(inc.active(), &[0, 2]);
    }

    #[test]
    fn reset_resnapshots_unread() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut inc = core(&c, &unread);
        inc.add(&c, 0);
        assert_eq!(inc.weight(), 2);
        unread.mark_read(0);
        inc.reset(&c, &unread);
        inc.add(&c, 0);
        assert_eq!(inc.weight(), 1);
    }

    #[test]
    fn core_reset_is_allocation_free_when_warm() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut core = IncrementalCore::new();
        core.reset(&c, &unread);
        assert!(core.take_allocs() > 0, "cold reset must size the buffers");
        for _ in 0..5 {
            core.add(&c, 0);
            core.add(&c, 2);
            core.reset(&c, &unread);
        }
        assert_eq!(core.take_allocs(), 0, "warm resets must not allocate");
        core.add(&c, 0);
        assert_eq!(core.weight(), 2);
    }

    #[test]
    fn singleton_tracker_matches_full_recompute() {
        let (d, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut tracker = SingletonWeights::new(&c, &unread);
        assert_eq!(tracker.as_slice(), covers_count(&d, &unread));
        for batch in [vec![1usize], vec![0, 4], vec![2, 3]] {
            tracker.mark_all_read(&batch, &mut unread);
            assert!(batch.iter().all(|&t| !unread.is_unread(t)));
            assert_eq!(
                tracker.as_slice(),
                covers_count(&d, &unread),
                "after {batch:?}"
            );
        }
        assert_eq!(tracker.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn singleton_tracker_marks_are_idempotent() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut tracker = SingletonWeights::new(&c, &unread);
        tracker.mark_all_read(&[1], &mut unread);
        let snapshot = tracker.as_slice().to_vec();
        tracker.mark_all_read(&[1], &mut unread);
        tracker.mark_all_read(&[1, 1], &mut unread);
        assert_eq!(tracker.as_slice(), snapshot);
        assert_eq!(unread.remaining(), 4);
    }

    #[test]
    fn singleton_tracker_starts_from_partial_unread() {
        let (d, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        unread.mark_all_read(&[0, 2]);
        let tracker = SingletonWeights::new(&c, &unread);
        assert_eq!(tracker.as_slice(), covers_count(&d, &unread));
        assert_eq!(tracker.n_readers(), 3);
        assert_eq!(tracker.get(0), 1);
    }

    #[test]
    fn incremental_singleton_uses_the_snapshot() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut inc = core(&c, &unread);
        // On an empty active set the add-delta is w({v}).
        assert_eq!(inc.delta_if_added(&c, 1), 3);
        // Mutating the TagSet afterwards must not affect the snapshot.
        unread.mark_read(4);
        assert_eq!(inc.delta_if_added(&c, 1), 3);
        inc.reset(&c, &unread);
        assert_eq!(inc.delta_if_added(&c, 1), 2);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_add_panics() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = core(&c, &unread);
        inc.add(&c, 0);
        inc.add(&c, 0);
    }
}
