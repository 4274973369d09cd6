//! The weight function `w(X)` (paper Definition 3) — batch and incremental.
//!
//! For a *feasible* scheduling set `X`, `w(X)` is the number of unread tags
//! located in the interrogation region of **exactly one** reader of `X`:
//! tags in overlapping regions are excluded (RRc), and feasibility already
//! rules out RTc. The weight is famously *not additive* —
//! `w(X₁ ∪ X₂) ≤ w(X₁) + w(X₂)` — which is exactly what makes the paper's
//! MWFS search harder than classic maximum-weight independent set.
//!
//! [`WeightEvaluator`] scores a whole set in `O(Σ_{v∈X} |tags(v)|)` with a
//! stamped scratch array (no per-call allocation); [`IncrementalWeight`]
//! maintains an active set under add/remove/peek in `O(|tags(v)|)` per
//! operation, which is what the Greedy Hill-Climbing baseline and the local
//! searches in Algorithms 1–3 iterate on.
//!
//! Both evaluators are thin borrows over unborrowed cores
//! ([`EvalScratch`], [`IncrementalCore`]) so long-lived scheduler scratch
//! can persist across slots without a coverage lifetime: a core's
//! [`IncrementalCore::reset`] re-snapshots the unread set as a packed-word
//! memcpy plus a stamp bump — `O(n_tags / 64)`, not `O(n_tags)` — which is
//! what keeps per-slot setup flat on the n = 100k scaling legs.

use crate::coverage::Coverage;
use crate::reader::ReaderId;
use crate::tag::{TagId, TagSet};

/// Unborrowed scratch behind [`WeightEvaluator`]: per-tag cover counts
/// with stamp invalidation, so consecutive evaluations of different sets
/// never pay a clear. Every method takes the coverage table explicitly;
/// persistent scheduler state stores this core and borrows coverage per
/// call.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Per-tag cover count for the set being evaluated, valid where
    /// `stamp_of[t] == stamp`.
    counts: Vec<u32>,
    stamp_of: Vec<u64>,
    stamp: u64,
}

impl EvalScratch {
    /// Scratch sized for `n_tags` tags.
    pub fn new(n_tags: usize) -> Self {
        EvalScratch {
            counts: vec![0; n_tags],
            stamp_of: vec![0; n_tags],
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

    /// `w(X)` for a feasible set `X` against the given unread set — see
    /// [`WeightEvaluator::weight`] for the contract.
    pub fn weight(&mut self, coverage: &Coverage, set: &[ReaderId], unread: &TagSet) -> usize {
        self.stamp += 1;
        let mut exactly_once = 0usize;
        for &v in set {
            for &t in coverage.tags_of(v) {
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

    /// The well-covered tags of a feasible set, sorted ascending — see
    /// [`WeightEvaluator::well_covered`].
    pub fn well_covered(
        &mut self,
        coverage: &Coverage,
        set: &[ReaderId],
        unread: &TagSet,
    ) -> Vec<TagId> {
        self.stamp += 1;
        let mut candidates: Vec<TagId> = Vec::new();
        for &v in set {
            for &t in coverage.tags_of(v) {
                let t = t as usize;
                if !unread.is_unread(t) {
                    continue;
                }
                if self.bump(t) == 1 {
                    candidates.push(t);
                }
            }
        }
        candidates.retain(|&t| self.counts[t] == 1 && self.stamp_of[t] == self.stamp);
        candidates.sort_unstable();
        candidates
    }
}

/// Batch evaluator for `w(X)` over a fixed coverage table.
///
/// Reusable: allocate once per (deployment, thread), call
/// [`weight`](Self::weight) many times.
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
    core: EvalScratch,
}

impl<'a> WeightEvaluator<'a> {
    /// Creates an evaluator for one coverage table.
    pub fn new(coverage: &'a Coverage) -> Self {
        WeightEvaluator {
            coverage,
            core: EvalScratch::new(coverage.n_tags()),
        }
    }

    /// `w(X)` for a feasible set `X` against the given unread set.
    ///
    /// The caller is responsible for `X` being feasible (pairwise
    /// independent) — for infeasible sets this still returns the
    /// exactly-once-covered count, but that number is not Definition 3's
    /// weight (see `crate::collisions` for the general Definition 1 audit).
    pub fn weight(&mut self, set: &[ReaderId], unread: &TagSet) -> usize {
        self.core.weight(self.coverage, set, unread)
    }

    /// The well-covered tags of a feasible set: unread tags covered by
    /// exactly one reader of `X`. Sorted ascending.
    pub fn well_covered(&mut self, set: &[ReaderId], unread: &TagSet) -> Vec<TagId> {
        self.core.well_covered(self.coverage, set, unread)
    }

    /// `w({v})`: every unread tag in `v`'s interrogation region.
    pub fn singleton_weight(&mut self, v: ReaderId, unread: &TagSet) -> usize {
        self.coverage
            .tags_of(v)
            .iter()
            .filter(|&&t| unread.is_unread(t as usize))
            .count()
    }

    /// Per-reader singleton weights (the initial node weights of
    /// Algorithms 2/3 and Colorwave's tie-breakers).
    pub fn all_singleton_weights(&mut self, unread: &TagSet) -> Vec<usize> {
        (0..self.coverage.n_readers())
            .map(|v| self.singleton_weight(v, unread))
            .collect()
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
    /// Tags already discounted, so repeated marks are idempotent (the
    /// driver's `TagSet` has the same contract).
    read: Vec<bool>,
}

impl<'a> SingletonWeights<'a> {
    /// Full computation from the current unread set —
    /// `O(Σ_v |tags(v)|)`, done once per covering schedule.
    pub fn new(coverage: &'a Coverage, unread: &TagSet) -> Self {
        let weights = (0..coverage.n_readers())
            .map(|v| {
                coverage
                    .tags_of(v)
                    .iter()
                    .filter(|&&t| unread.is_unread(t as usize))
                    .count()
            })
            .collect();
        Self::with_weights(coverage, unread, weights)
    }

    /// As [`new`](Self::new), but computes the initial weights by
    /// popcounting packed coverage rows against the unread words —
    /// `O(row words)` instead of `O(incidences)`, same values.
    pub fn from_rows(
        coverage: &'a Coverage,
        rows: &crate::bits::CoverageRows,
        unread: &TagSet,
    ) -> Self {
        debug_assert_eq!(rows.n_readers(), coverage.n_readers());
        Self::with_weights(coverage, unread, rows.all_singleton_weights(unread))
    }

    fn with_weights(coverage: &'a Coverage, unread: &TagSet, weights: Vec<usize>) -> Self {
        let read = (0..coverage.n_tags())
            .map(|t| !unread.is_unread(t))
            .collect();
        SingletonWeights {
            coverage,
            weights,
            read,
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

    /// Discounts tag `t` from every reader covering it (idempotent).
    pub fn mark_read(&mut self, t: TagId) {
        if self.read[t] {
            return;
        }
        self.read[t] = true;
        for &v in self.coverage.readers_of(t) {
            self.weights[v as usize] -= 1;
        }
    }

    /// Discounts a batch of tags — the per-slot delta update.
    pub fn mark_all_read(&mut self, tags: &[TagId]) {
        for &t in tags {
            self.mark_read(t);
        }
    }
}

/// Unborrowed core behind [`IncrementalWeight`]: `w(active)` under reader
/// add/remove against a packed snapshot of the unread set.
///
/// Designed for cross-slot reuse: [`reset`](Self::reset) costs a word
/// memcpy of the unread snapshot plus `O(active)` teardown — counts are
/// stamp-invalidated, never cleared. One warm core serves every slot of a
/// covering schedule with zero allocations.
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

    /// `w({v})` against the snapshotted unread set.
    pub fn singleton_weight(&self, coverage: &Coverage, v: ReaderId) -> usize {
        coverage
            .tags_of(v)
            .iter()
            .filter(|&&t| self.is_unread(t as usize))
            .count()
    }

    /// Weight change if `v` were added, without committing.
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

/// Incrementally maintained `w(active)` under reader add/remove.
///
/// The unread set is fixed at construction ([`IncrementalWeight::new`]) or
/// [`reset`](Self::reset); mutating the `TagSet` mid-stream invalidates the
/// cached weight.
#[derive(Debug, Clone)]
pub struct IncrementalWeight<'a> {
    coverage: &'a Coverage,
    core: IncrementalCore,
}

impl<'a> IncrementalWeight<'a> {
    /// Starts with an empty active set.
    pub fn new(coverage: &'a Coverage, unread: &TagSet) -> Self {
        let mut core = IncrementalCore::new();
        core.reset(coverage, unread);
        IncrementalWeight { coverage, core }
    }

    /// Clears the active set and re-snapshots the unread tags.
    pub fn reset(&mut self, unread: &TagSet) {
        self.core.reset(self.coverage, unread);
    }

    /// Current `w(active)`.
    #[inline]
    pub fn weight(&self) -> usize {
        self.core.weight()
    }

    /// Current active readers in insertion order.
    pub fn active(&self) -> &[ReaderId] {
        self.core.active()
    }

    /// `true` iff `v` is active.
    pub fn is_active(&self, v: ReaderId) -> bool {
        self.core.is_active(v)
    }

    /// `w({v})` against the snapshotted unread set.
    pub fn singleton_weight(&self, v: ReaderId) -> usize {
        self.core.singleton_weight(self.coverage, v)
    }

    /// Weight change if `v` were added, without committing.
    pub fn delta_if_added(&self, v: ReaderId) -> isize {
        self.core.delta_if_added(self.coverage, v)
    }

    /// Adds `v` to the active set; returns the weight delta.
    pub fn add(&mut self, v: ReaderId) -> isize {
        self.core.add(self.coverage, v)
    }

    /// Removes `v`; returns the weight delta.
    pub fn remove(&mut self, v: ReaderId) -> isize {
        self.core.remove(self.coverage, v)
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
        assert_eq!(w.singleton_weight(0, &unread), 0); // A covers only tags 0, 1 — both read
        assert_eq!(w.singleton_weight(1, &unread), 2); // B covers 1 (read), 2, 4
    }

    #[test]
    fn singleton_weight_counts_all_covered_unread() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut w = WeightEvaluator::new(&c);
        assert_eq!(w.singleton_weight(0, &unread), 2); // tags 0, 1
        assert_eq!(w.singleton_weight(1, &unread), 3); // tags 1, 2, 4
        assert_eq!(w.singleton_weight(2, &unread), 2); // tags 2, 3
        assert_eq!(w.all_singleton_weights(&unread), vec![2, 3, 2]);
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
        let mut inc = IncrementalWeight::new(&c, &unread);
        assert_eq!(inc.weight(), 0);
        inc.add(0);
        assert_eq!(inc.weight(), batch.weight(&[0], &unread));
        inc.add(1);
        assert_eq!(inc.weight(), batch.weight(&[0, 1], &unread));
        inc.add(2);
        assert_eq!(inc.weight(), batch.weight(&[0, 1, 2], &unread));
        inc.remove(1);
        assert_eq!(inc.weight(), batch.weight(&[0, 2], &unread));
        assert_eq!(inc.active(), &[0, 2]);
    }

    #[test]
    fn peek_equals_commit_delta() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = IncrementalWeight::new(&c, &unread);
        inc.add(0);
        let peek = inc.delta_if_added(1);
        let actual = inc.add(1);
        assert_eq!(peek, actual);
        // Adding B next to A costs the overlap tag: w {0} = 2 → w {0,1} = 3-?
        // A covers {0,1}; B covers {1,2,4}; overlap tag 1 → w = 1 + 2 = 3.
        assert_eq!(inc.weight(), 3);
    }

    #[test]
    fn add_remove_roundtrip_restores_weight() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = IncrementalWeight::new(&c, &unread);
        inc.add(0);
        inc.add(2);
        let w = inc.weight();
        inc.add(1);
        inc.remove(1);
        assert_eq!(inc.weight(), w);
        assert_eq!(inc.active(), &[0, 2]);
    }

    #[test]
    fn reset_resnapshots_unread() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut inc = IncrementalWeight::new(&c, &unread);
        inc.add(0);
        assert_eq!(inc.weight(), 2);
        unread.mark_read(0);
        inc.reset(&unread);
        inc.add(0);
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
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let mut tracker = SingletonWeights::new(&c, &unread);
        let mut full = WeightEvaluator::new(&c);
        assert_eq!(tracker.as_slice(), full.all_singleton_weights(&unread));
        for batch in [vec![1usize], vec![0, 4], vec![2, 3]] {
            unread.mark_all_read(&batch);
            tracker.mark_all_read(&batch);
            assert_eq!(
                tracker.as_slice(),
                full.all_singleton_weights(&unread),
                "after {batch:?}"
            );
        }
        assert_eq!(tracker.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn singleton_tracker_marks_are_idempotent() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut tracker = SingletonWeights::new(&c, &unread);
        tracker.mark_read(1);
        let snapshot = tracker.as_slice().to_vec();
        tracker.mark_read(1);
        tracker.mark_all_read(&[1, 1]);
        assert_eq!(tracker.as_slice(), snapshot);
    }

    #[test]
    fn singleton_tracker_starts_from_partial_unread() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        unread.mark_all_read(&[0, 2]);
        let tracker = SingletonWeights::new(&c, &unread);
        let mut full = WeightEvaluator::new(&c);
        assert_eq!(tracker.as_slice(), full.all_singleton_weights(&unread));
        assert_eq!(tracker.n_readers(), 3);
        assert_eq!(tracker.get(0), 1);
    }

    #[test]
    fn rows_constructor_matches_the_scalar_one() {
        let (_, c) = figure2();
        let rows = crate::bits::CoverageRows::build(&c);
        let mut unread = TagSet::all_unread(5);
        unread.mark_read(3);
        let scalar = SingletonWeights::new(&c, &unread);
        let popcnt = SingletonWeights::from_rows(&c, &rows, &unread);
        assert_eq!(scalar.as_slice(), popcnt.as_slice());
    }

    #[test]
    fn incremental_singleton_uses_the_snapshot() {
        let (_, c) = figure2();
        let mut unread = TagSet::all_unread(5);
        let inc = IncrementalWeight::new(&c, &unread);
        assert_eq!(inc.singleton_weight(1), 3);
        // Mutating the TagSet afterwards must not affect the snapshot.
        unread.mark_read(4);
        assert_eq!(inc.singleton_weight(1), 3);
        let mut rebound = inc.clone();
        rebound.reset(&unread);
        assert_eq!(rebound.singleton_weight(1), 2);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_add_panics() {
        let (_, c) = figure2();
        let unread = TagSet::all_unread(5);
        let mut inc = IncrementalWeight::new(&c, &unread);
        inc.add(0);
        inc.add(0);
    }
}
