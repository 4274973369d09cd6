//! Packed-bitset coverage rows and exactly-once bitplanes (DESIGN.md §11).
//!
//! The scoring hot path of every covering-schedule driver asks two
//! questions per slot: *how many unread tags does this activation cover
//! exactly once* (`w(X)`), and *which ones* (the well-covered set). The
//! `Vec`-walking reference answers both one incidence at a time;
//! this module answers them a cache line at a time:
//!
//! * [`CoverageRows`] stores each reader's tag list as sparse
//!   `(word, mask)` pairs over the tag bit-space — the same information as
//!   [`Coverage::tags_of`], pre-packed for 64-tag-wide intersection.
//! * [`PlaneScratch`] maintains two dense bitplanes over the tag space:
//!   `ge1` (covered by ≥ 1 active reader) and `ge2` (covered by ≥ 2).
//!   Exactly-once coverage is `ge1 & !ge2`, so `w(X)` is a popcount and
//!   the well-covered set falls out of the planes in ascending tag order
//!   with no sort.
//!
//! Every operation is defined to be *bit-identical* to the eager
//! `Vec`-based evaluators in [`crate::weight`]; the differential suite in
//! `tests/perf_equivalence.rs` pins that equivalence.

use crate::coverage::Coverage;
use crate::reader::ReaderId;
use crate::tag::{TagId, TagSet};

/// A `u64` buffer whose storage starts on a 64-byte boundary, so a plane
/// never straddles an extra cache line and the popcount loops stream
/// aligned words. This is the alignment contract arena slabs and bitplanes
/// share (DESIGN.md §11).
pub struct AlignedWords {
    ptr: std::ptr::NonNull<u64>,
    len: usize,
}

/// Cache-line size in bytes; slab and plane storage is aligned to this.
pub const CACHE_LINE: usize = 64;

impl AlignedWords {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        AlignedWords {
            ptr: std::ptr::NonNull::dangling(),
            len: 0,
        }
    }

    /// A zeroed buffer of `len` words.
    pub fn zeroed(len: usize) -> Self {
        let mut w = AlignedWords::new();
        w.reset_zeroed(len);
        w
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len * 8, CACHE_LINE).expect("aligned words layout")
    }

    /// Resizes to exactly `len` zeroed words, reallocating only when the
    /// length changes. Returns `true` when a fresh heap allocation was
    /// made (the arena's alloc-event signal).
    pub fn reset_zeroed(&mut self, len: usize) -> bool {
        if len == self.len {
            self.fill(0);
            return false;
        }
        self.release();
        if len > 0 {
            // SAFETY: layout has non-zero size; alloc_zeroed returns
            // CACHE_LINE-aligned memory or null (handled below).
            let raw = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) };
            self.ptr = std::ptr::NonNull::new(raw as *mut u64)
                .unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(len)));
            self.len = len;
            return true;
        }
        false
    }

    fn release(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr was allocated with exactly this layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
            self.ptr = std::ptr::NonNull::dangling();
            self.len = 0;
        }
    }
}

impl Drop for AlignedWords {
    fn drop(&mut self) {
        self.release();
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> Self {
        let mut c = AlignedWords::zeroed(self.len);
        c.copy_from_slice(self);
        c
    }
}

impl std::ops::Deref for AlignedWords {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        // SAFETY: ptr/len describe a live allocation (or len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for AlignedWords {
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as above, and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl std::fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedWords({} words)", self.len)
    }
}

impl Default for AlignedWords {
    fn default() -> Self {
        AlignedWords::new()
    }
}

// SAFETY: AlignedWords owns its allocation exclusively, like Vec<u64>.
unsafe impl Send for AlignedWords {}
unsafe impl Sync for AlignedWords {}

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

    /// `w({v})` by popcount: unread tags in `v`'s interrogation region.
    /// `unread` is the packed word view of the unread [`TagSet`]
    /// ([`TagSet::words`]).
    #[inline]
    pub fn singleton_weight(&self, v: ReaderId, unread: &[u64]) -> usize {
        self.row(v)
            .map(|(w, m)| (m & unread[w]).count_ones() as usize)
            .sum()
    }

    /// All singleton weights, indexed by reader — the popcount form of
    /// [`crate::WeightEvaluator::all_singleton_weights`].
    pub fn all_singleton_weights(&self, unread: &TagSet) -> Vec<usize> {
        let words = unread.words();
        (0..self.n_readers())
            .map(|v| self.singleton_weight(v, words))
            .collect()
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
    ge1: AlignedWords,
    ge2: AlignedWords,
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
            self.allocs += self.ge1.reset_zeroed(n_words) as u64;
            self.allocs += self.ge2.reset_zeroed(n_words) as u64;
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

    /// Read access to the raw `(ge1, ge2)` planes, for comparing two
    /// scratches word for word.
    pub fn planes(&self) -> (&[u64], &[u64]) {
        (&self.ge1, &self.ge2)
    }

    /// Switches to dense mode explicitly, as a heavy
    /// [`add_all`](Self::add_all) would: adds stop tracking touched
    /// words and the next clear memsets the whole planes.
    pub fn make_dense(&mut self) {
        self.dense = true;
        self.touched.clear();
    }

    /// `w(X)` of the added set against `unread` words, by popcount.
    pub fn weight(&self, unread: &[u64]) -> usize {
        if self.dense {
            return (0..self.ge1.len())
                .map(|w| (self.ge1[w] & !self.ge2[w] & unread[w]).count_ones() as usize)
                .sum();
        }
        self.touched
            .iter()
            .map(|&w| {
                let w = w as usize;
                (self.ge1[w] & !self.ge2[w] & unread[w]).count_ones() as usize
            })
            .sum()
    }

    /// The popcount well-covered delta of adding `v` to the current
    /// planes, without committing: tags `v` would newly cover exactly once
    /// minus tags it would demote from exactly-once to twice-covered.
    /// Matches [`crate::IncrementalWeight::delta_if_added`] bit for bit.
    pub fn delta_if_added(&self, rows: &CoverageRows, v: ReaderId, unread: &[u64]) -> isize {
        let mut delta = 0isize;
        for (w, m) in rows.row(v) {
            let live = m & unread[w];
            delta += (live & !self.ge1[w]).count_ones() as isize;
            delta -= (live & self.ge1[w] & !self.ge2[w]).count_ones() as isize;
        }
        delta
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
    use crate::weight::{IncrementalWeight, WeightEvaluator};

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
    fn popcount_singletons_match_evaluator() {
        for seed in 0..4 {
            let (c, unread) = random_instance(seed);
            let rows = CoverageRows::build(&c);
            let mut eval = WeightEvaluator::new(&c);
            assert_eq!(
                rows.all_singleton_weights(&unread),
                eval.all_singleton_weights(&unread),
                "seed {seed}"
            );
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
            assert_eq!(
                planes.weight(unread.words()),
                eval.weight(&set, &unread),
                "seed {seed}"
            );
            let mut got = Vec::new();
            planes.well_covered_into(unread.words(), &mut got);
            assert_eq!(got, eval.well_covered(&set, &unread), "seed {seed}");
        }
    }

    #[test]
    fn plane_delta_matches_incremental() {
        for seed in 0..4 {
            let (c, unread) = random_instance(seed);
            let rows = CoverageRows::build(&c);
            let mut planes = PlaneScratch::new();
            planes.ensure(rows.n_words());
            let mut inc = IncrementalWeight::new(&c, &unread);
            for v in (0..c.n_readers()).step_by(3) {
                assert_eq!(
                    planes.delta_if_added(&rows, v, unread.words()),
                    inc.delta_if_added(v),
                    "seed {seed} reader {v}"
                );
                planes.add(&rows, v);
                inc.add(v);
            }
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
        assert_eq!(planes.weight(unread.words()), 0);
        let mut out = vec![99];
        planes.well_covered_into(unread.words(), &mut out);
        assert!(out.is_empty());
        // Reusable after clear: same answer as a fresh scratch.
        planes.add(&rows, 3);
        let mut eval = WeightEvaluator::new(&c);
        assert_eq!(planes.weight(unread.words()), eval.weight(&[3], &unread));
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

    #[test]
    fn aligned_words_contract() {
        let w = AlignedWords::zeroed(11);
        assert_eq!(w.len(), 11);
        assert_eq!(w.as_ptr() as usize % CACHE_LINE, 0);
        assert!(w.iter().all(|&x| x == 0));
        let empty = AlignedWords::new();
        assert!(empty.is_empty());
    }
}
