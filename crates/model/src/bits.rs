//! Packed-bitset coverage rows and exactly-once bitplanes (DESIGN.md §11):
//! how a covering schedule extracts the tags each slot serves.
//!
//! Once a slot's activation is chosen, the tags it serves are the unread
//! tags it covers exactly once (the well-covered set).
//! [`crate::WeightEvaluator::well_covered`] finds them one incidence at
//! a time; this module finds them 64 tags at a time:
//!
//! * [`CoverageRows`] stores each reader's tag list as sparse
//!   `(word, mask)` pairs over the tag bit-space — the same information as
//!   [`Coverage::tags_of`], pre-packed for 64-tag-wide intersection.
//! * [`PlaneScratch`] maintains two bitplanes over the tag space:
//!   `ge1` (covered by ≥ 1 active reader) and `ge2` (covered by ≥ 2).
//!   Exactly-once coverage is `ge1 & !ge2`, so the well-covered set falls
//!   out of the planes in ascending tag order with no sort.
//!
//! Extraction is defined to equal [`crate::WeightEvaluator::well_covered`]
//! tag for tag; the differential suite in `tests/perf_equivalence.rs` pins
//! that equivalence.

use crate::coverage::Coverage;
use crate::reader::ReaderId;
use crate::tag::TagId;

/// Per-reader coverage packed as sparse `(word, mask)` pairs over the tag
/// bit-space, in ascending word order (rows inherit the sort of
/// [`Coverage::tags_of`]). Built once per deployment; immutable.
#[derive(Debug, Clone)]
pub struct CoverageRows {
    /// Row `v` occupies `word_idx[offsets[v]..offsets[v+1]]` (and the same
    /// range of `mask`).
    offsets: Vec<u32>,
    word_idx: Vec<u32>,
    mask: Vec<u64>,
    n_words: usize,
}

impl CoverageRows {
    /// Packs every reader's tag list into bitset rows.
    pub fn build(coverage: &Coverage) -> Self {
        let n = coverage.n_readers();
        let n_words = coverage.n_tags().div_ceil(64);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut word_idx = Vec::new();
        let mut mask = Vec::new();
        offsets.push(0);
        for v in 0..n {
            // tags_of is sorted ascending, so equal words are consecutive.
            for &t in coverage.tags_of(v) {
                let (w, bit) = (t / 64, 1u64 << (t % 64));
                if word_idx.last() == Some(&w) && offsets[v] as usize != word_idx.len() {
                    *mask.last_mut().unwrap() |= bit;
                } else {
                    word_idx.push(w);
                    mask.push(bit);
                }
            }
            offsets.push(word_idx.len() as u32);
        }
        CoverageRows {
            offsets,
            word_idx,
            mask,
            n_words,
        }
    }

    /// Number of reader rows.
    pub fn n_readers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Words spanned by the tag bit-space.
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Number of `(word, mask)` pairs in reader `v`'s row.
    #[inline]
    pub fn row_words(&self, v: ReaderId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The `(word, mask)` pairs of reader `v`, ascending by word.
    #[inline]
    pub fn row(&self, v: ReaderId) -> impl Iterator<Item = (usize, u64)> + '_ {
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        self.word_idx[range.clone()]
            .iter()
            .zip(&self.mask[range])
            .map(|(&w, &m)| (w as usize, m))
    }

    /// Total tag incidences across all rows (sum of mask popcounts).
    pub fn incidences(&self) -> usize {
        self.mask.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Drops read tags from every row in place, returning the live
    /// incidence count. Masks are ANDed with `unread` and emptied pairs
    /// removed, so later plane builds skip retired tags entirely.
    ///
    /// Safe under the byte-identity contract: a mask bit only influences
    /// the planes at its own tag position, and every consumer intersects
    /// the planes with the *current* unread set — positions dropped here
    /// are exactly the ones that intersection already zeroes.
    pub fn retain_unread(&mut self, unread: &[u64]) -> usize {
        let mut out = 0usize;
        let mut live = 0usize;
        let mut start = 0usize;
        for v in 0..self.n_readers() {
            let end = self.offsets[v + 1] as usize;
            for i in start..end {
                let w = self.word_idx[i];
                let m = self.mask[i] & unread[w as usize];
                if m != 0 {
                    self.word_idx[out] = w;
                    self.mask[out] = m;
                    live += m.count_ones() as usize;
                    out += 1;
                }
            }
            start = end;
            self.offsets[v + 1] = out as u32;
        }
        self.word_idx.truncate(out);
        self.mask.truncate(out);
        live
    }
}

/// Dense exactly-once bitplanes for one activation, reusable across slots.
///
/// `ge1[w]` holds tags covered by at least one added reader, `ge2[w]` by at
/// least two — so `ge1 & !ge2` is exactly-once coverage, and intersecting
/// with the unread words gives the well-covered set. The scratch tracks
/// which words it dirtied, so [`clear`](Self::clear) costs O(touched), not
/// O(tag words): a cheap fallback slot stays cheap even at n = 100k.
#[derive(Debug, Clone, Default)]
pub struct PlaneScratch {
    ge1: Vec<u64>,
    ge2: Vec<u64>,
    /// Words with at least one `ge1` bit, in first-touch order, unique.
    /// Meaningful only while `dense` is false.
    touched: Vec<u32>,
    /// Set by [`add_all`](Self::add_all) when the activation dirties so
    /// much of the plane that per-word touch tracking costs more than
    /// streaming: adds drop the branch-per-word, [`clear`](Self::clear)
    /// becomes a plane memset, extraction scans densely.
    dense: bool,
    /// Fresh heap allocations since the last [`take_allocs`](Self::take_allocs).
    allocs: u64,
}

impl PlaneScratch {
    /// An empty scratch; planes are sized on first [`ensure`](Self::ensure).
    pub fn new() -> Self {
        PlaneScratch::default()
    }

    /// Sizes the planes for a tag space of `n_words` words and clears them.
    /// Reallocation happens only when the word count changes.
    pub fn ensure(&mut self, n_words: usize) {
        if self.ge1.len() != n_words {
            self.ge1 = vec![0; n_words];
            self.ge2 = vec![0; n_words];
            self.allocs += 2;
            self.touched.clear();
            self.dense = false;
        } else {
            self.clear();
        }
    }

    /// Fresh heap allocations since the last call (the `mcs.alloc` feed).
    pub fn take_allocs(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Resets both planes by undoing only the touched words — or, after a
    /// dense [`add_all`](Self::add_all), by zeroing the planes outright.
    pub fn clear(&mut self) {
        if self.dense {
            self.ge1.fill(0);
            self.ge2.fill(0);
            self.dense = false;
        } else {
            for &w in &self.touched {
                self.ge1[w as usize] = 0;
                self.ge2[w as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// Adds reader `v`'s coverage to the planes.
    pub fn add(&mut self, rows: &CoverageRows, v: ReaderId) {
        debug_assert_eq!(self.ge1.len(), rows.n_words(), "ensure() not called");
        if self.dense {
            for (w, m) in rows.row(v) {
                self.ge2[w] |= self.ge1[w] & m;
                self.ge1[w] |= m;
            }
            return;
        }
        for (w, m) in rows.row(v) {
            // ge2 ⊆ ge1 invariantly, so ge1 == 0 detects first touch.
            if self.ge1[w] == 0 {
                self.touched.push(w as u32);
            }
            self.ge2[w] |= self.ge1[w] & m;
            self.ge1[w] |= m;
        }
    }

    /// Adds a whole activation at once, choosing the plane-update strategy
    /// from its total row mass: a heavy activation (row words on the order
    /// of the plane itself) switches to dense mode — unconditional `or`
    /// loops now, one memset at the next [`clear`](Self::clear) — while a
    /// sparse one keeps exact touch tracking so clears stay O(touched).
    /// Either way the resulting planes are bit-identical to a sequence of
    /// [`add`](Self::add) calls.
    pub fn add_all(&mut self, rows: &CoverageRows, active: &[ReaderId]) {
        debug_assert_eq!(self.ge1.len(), rows.n_words(), "ensure() not called");
        if !self.dense {
            let mass: usize = active.iter().map(|&v| rows.row_words(v)).sum();
            if mass >= self.ge1.len() / 2 {
                self.dense = true;
                // Words touched before the switch stay recorded only in
                // the planes; the memset clear covers them.
                self.touched.clear();
            }
        }
        for &v in active {
            self.add(rows, v);
        }
    }

    /// Appends the well-covered tags (exactly-once covered and unread) to
    /// `out` (cleared first), ascending — the planes yield them in natural
    /// order, no sort.
    pub fn well_covered_into(&mut self, unread: &[u64], out: &mut Vec<TagId>) {
        out.clear();
        // Dense and sparse extraction emit the same tags in the same
        // ascending order — an untouched word has no `ge1` bits and
        // contributes nothing — so the choice is purely a cost model:
        // once a sizeable fraction of the words is dirty, one streaming
        // pass over the planes beats sorting the touched list, while a
        // sparse activation (a fallback slot touches a dozen words at
        // n = 100k) keeps the O(touched log touched) path.
        if self.dense || self.touched.len() * 8 >= self.ge1.len() {
            for (w, ((&g1, &g2), &un)) in
                self.ge1.iter().zip(self.ge2.iter()).zip(unread).enumerate()
            {
                let mut bits = g1 & !g2 & un;
                while bits != 0 {
                    out.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        } else {
            self.touched.sort_unstable();
            for &w in &self.touched {
                let w = w as usize;
                let mut bits = self.ge1[w] & !self.ge2[w] & unread[w];
                while bits != 0 {
                    out.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radii::RadiusModel;
    use crate::scenario::{Scenario, ScenarioKind};
    use crate::tag::TagSet;
    use crate::weight::WeightEvaluator;

    fn random_instance(seed: u64) -> (Coverage, TagSet) {
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 25,
            n_tags: 180,
            region_side: 90.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 12.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed);
        let c = Coverage::build(&d);
        let mut unread = TagSet::all_unread(d.n_tags());
        // Retire a deterministic third of the tags to exercise the unread
        // intersection.
        for t in (0..d.n_tags()).filter(|t| t % 3 == seed as usize % 3) {
            unread.mark_read(t);
        }
        (c, unread)
    }

    fn extract(planes: &mut PlaneScratch, unread: &TagSet) -> Vec<TagId> {
        let mut out = Vec::new();
        planes.well_covered_into(unread.words(), &mut out);
        out
    }

    #[test]
    fn rows_reproduce_coverage_lists() {
        let (c, _) = random_instance(1);
        let rows = CoverageRows::build(&c);
        assert_eq!(rows.n_readers(), c.n_readers());
        for v in 0..c.n_readers() {
            let mut tags = Vec::new();
            for (w, mut m) in rows.row(v) {
                while m != 0 {
                    tags.push((w * 64 + m.trailing_zeros() as usize) as u32);
                    m &= m - 1;
                }
            }
            assert_eq!(tags, c.tags_of(v), "reader {v}");
        }
    }

    #[test]
    fn row_words_are_strictly_ascending() {
        let (c, _) = random_instance(2);
        let rows = CoverageRows::build(&c);
        for v in 0..c.n_readers() {
            let words: Vec<usize> = rows.row(v).map(|(w, _)| w).collect();
            assert!(words.windows(2).all(|p| p[0] < p[1]), "reader {v}");
        }
    }

    #[test]
    fn planes_match_batch_weight_and_well_covered() {
        for seed in 0..4 {
            let (c, unread) = random_instance(seed);
            let rows = CoverageRows::build(&c);
            let mut planes = PlaneScratch::new();
            planes.ensure(rows.n_words());
            let mut eval = WeightEvaluator::new(&c);
            let set: Vec<ReaderId> = (0..c.n_readers()).step_by(2).collect();
            for &v in &set {
                planes.add(&rows, v);
            }
            let served = extract(&mut planes, &unread);
            assert_eq!(served, eval.well_covered(&set, &unread), "seed {seed}");
            assert_eq!(served.len(), eval.weight(&set, &unread), "seed {seed}");
        }
    }

    #[test]
    fn clear_undoes_only_touched_words_but_fully() {
        let (c, unread) = random_instance(0);
        let rows = CoverageRows::build(&c);
        let mut planes = PlaneScratch::new();
        planes.ensure(rows.n_words());
        planes.add(&rows, 0);
        planes.add(&rows, 1);
        planes.clear();
        let mut out = vec![99];
        planes.well_covered_into(unread.words(), &mut out);
        assert!(out.is_empty());
        // Reusable after clear: same answer as a fresh scratch, for one
        // reader and for every reader at once (which extracts densely, so
        // a word the clear missed would show).
        let mut eval = WeightEvaluator::new(&c);
        planes.add(&rows, 3);
        assert_eq!(
            extract(&mut planes, &unread),
            eval.well_covered(&[3], &unread)
        );
        planes.clear();
        let all: Vec<ReaderId> = (0..c.n_readers()).collect();
        planes.add_all(&rows, &all);
        assert_eq!(
            extract(&mut planes, &unread),
            eval.well_covered(&all, &unread)
        );
    }

    #[test]
    fn ensure_reallocates_only_on_resize() {
        let mut planes = PlaneScratch::new();
        planes.ensure(8);
        assert_eq!(planes.take_allocs(), 2);
        planes.ensure(8);
        assert_eq!(planes.take_allocs(), 0);
        planes.ensure(16);
        assert_eq!(planes.take_allocs(), 2);
    }
}
