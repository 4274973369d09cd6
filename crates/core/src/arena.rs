//! Per-scheduler scratch arenas (DESIGN.md §11).
//!
//! Every one-shot scheduler is invoked once per covering-schedule slot,
//! and before this module each invocation rebuilt its `O(n_readers + n_tags)`
//! working state from scratch — at n = 100k that setup dwarfed the actual
//! search. The arena types here hold that state *across* calls:
//!
//! * buffers are allocated on first use and resized only when the
//!   instance shape changes;
//! * per-call invalidation is a stamp bump or an `O(touched)` clear,
//!   never an `O(n)` rebuild;
//! * every fresh heap allocation is counted, and the covering-schedule
//!   driver surfaces the per-slot counts as the `mcs.alloc` counter —
//!   the observable proof that allocation is flat (warmup in the first
//!   slot, zero afterwards).
//!
//! Scratch state is owned per scheduler instance, and a scheduler runs
//! on the one thread that calls it, so nothing here needs interior
//! mutability or locking.

use crate::exact::MwfsScratch;
use rfid_graph::Csr;
use rfid_model::{Coverage, TagSet};

/// Packed alive flags over the reader id space: one bit per reader, so the
/// whole set stays L1-resident even at n = 100k (12.5 KB vs the 100 KB a
/// `Vec<bool>` spreads the same probes over). The kill/ball/seed-scan hot
/// loops hit this at millions of random indexes per scheduling run, which
/// is exactly the access pattern where the 8x density pays.
#[derive(Debug, Clone, Default)]
pub struct AliveSet {
    words: Vec<u64>,
    len: usize,
}

impl AliveSet {
    /// All `n` readers alive.
    pub fn all_alive(n: usize) -> Self {
        let mut s = AliveSet::default();
        s.reset(n);
        s
    }

    /// Marks every reader alive, resizing if the population changed.
    /// Returns `true` when the backing words were reallocated.
    pub fn reset(&mut self, n: usize) -> bool {
        let words = n.div_ceil(64);
        let grew = words > self.words.capacity();
        self.words.clear();
        self.words.resize(words, !0u64);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        self.len = n;
        grew
    }

    /// Number of reader slots (alive or dead).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty (zero readers).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether reader `i` is alive.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 != 0
    }

    /// Marks reader `i` dead.
    #[inline]
    pub fn kill(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Marks reader `i` alive again (kill undo between slots).
    #[inline]
    pub fn revive(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }
}

/// Reusable BFS state for alive-restricted hop balls: the `O(n)` distance
/// array is allocated once and invalidated by a stamp bump instead of a
/// clear, so each ball query costs only its output size. One instance
/// serves a whole scheduling run (hundreds of ball queries).
#[derive(Debug, Clone, Default)]
pub struct BallScratch {
    dist: Vec<u32>,
    stamp_of: Vec<u64>,
    stamp: u64,
    queue: std::collections::VecDeque<usize>,
    allocs: u64,
}

impl BallScratch {
    /// Scratch sized for an `n`-node interference graph.
    pub fn new(n: usize) -> Self {
        let mut s = BallScratch::default();
        s.ensure(n);
        s
    }

    /// Resizes for a different node count (no-op when unchanged).
    pub fn ensure(&mut self, n: usize) {
        if self.dist.len() != n {
            self.dist = vec![0; n];
            self.stamp_of = vec![0; n];
            self.stamp = 0;
            self.allocs += 1;
        }
    }

    /// Fresh heap allocations since the last call.
    pub fn take_allocs(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// `N(src)^r` within the alive-induced subgraph, appended to `out`
    /// (cleared first), sorted ascending. `src` must be alive.
    pub fn ball_into(
        &mut self,
        g: &Csr,
        src: usize,
        r: u32,
        alive: &AliveSet,
        out: &mut Vec<usize>,
    ) {
        debug_assert!(alive.get(src));
        // Radius 0 and 1 cover almost every query Algorithm 2 makes at
        // scale (the ρ-growth overwhelmingly stops immediately). CSR
        // neighbour lists are sorted ascending, so the 1-ball is a merge
        // of `src` into its alive neighbours — no stamps, no sort.
        if r == 0 {
            out.clear();
            out.push(src);
            return;
        }
        if r == 1 {
            out.clear();
            let mut src_placed = false;
            for &t in g.neighbors(src) {
                let t = t as usize;
                if t == src {
                    continue;
                }
                if !src_placed && t > src {
                    out.push(src);
                    src_placed = true;
                }
                if alive.get(t) {
                    out.push(t);
                }
            }
            if !src_placed {
                out.push(src);
            }
            return;
        }
        self.stamp += 1;
        out.clear();
        out.push(src);
        self.dist[src] = 0;
        self.stamp_of[src] = self.stamp;
        self.queue.clear();
        self.queue.push_back(src);
        while let Some(v) = self.queue.pop_front() {
            let d = self.dist[v];
            if d == r {
                continue;
            }
            for &t in g.neighbors(v) {
                let t = t as usize;
                if alive.get(t) && self.stamp_of[t] != self.stamp {
                    self.stamp_of[t] = self.stamp;
                    self.dist[t] = d + 1;
                    out.push(t);
                    self.queue.push_back(t);
                }
            }
        }
        out.sort_unstable();
    }
}

/// The cross-slot scratch arena of a ball-growing scheduler (Algorithm 2
/// and the distributed simulation's central reference): the exact-MWFS
/// weight cores plus the restricted-BFS state, with one combined
/// allocation account.
#[derive(Debug, Clone, Default)]
pub struct SlotArena {
    pub(crate) mwfs: MwfsScratch,
    pub(crate) balls: BallScratch,
    allocs: u64,
}

impl SlotArena {
    /// An empty arena; sized by the first [`prepare`](Self::prepare).
    pub fn new() -> Self {
        SlotArena::default()
    }

    /// Readies the arena for one scheduling call: re-snapshots the unread
    /// set and sizes the ball scratch. Allocation-free once warm.
    pub fn prepare(&mut self, coverage: &Coverage, unread: &TagSet, n_readers: usize) {
        self.mwfs.reset(coverage, unread);
        self.balls.ensure(n_readers);
    }

    /// Records `n` buffer-growth events from the owning scheduler's own
    /// persistent vectors, so they share this arena's account.
    pub(crate) fn note_allocs(&mut self, n: u64) {
        self.allocs += n;
    }

    /// Drains the combined allocation count (arena + weight cores + BFS
    /// scratch) since the last call — the `mcs.alloc` feed.
    pub fn take_allocs(&mut self) -> u64 {
        std::mem::take(&mut self.allocs) + self.mwfs.take_allocs() + self.balls.take_allocs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_scratch_counts_allocations_once() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let alive = AliveSet::all_alive(4);
        let mut s = BallScratch::new(4);
        assert_eq!(s.take_allocs(), 1);
        let mut out = Vec::new();
        for _ in 0..3 {
            s.ensure(4);
            s.ball_into(&g, 0, 2, &alive, &mut out);
            assert_eq!(out, vec![0, 1, 2]);
        }
        assert_eq!(s.take_allocs(), 0, "warm queries must not allocate");
        s.ensure(8);
        assert_eq!(s.take_allocs(), 1, "resizing is one allocation event");
    }

    #[test]
    fn arena_prepare_is_allocation_free_when_warm() {
        use rfid_model::{RadiusModel, Scenario, ScenarioKind};
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 15,
            n_tags: 90,
            region_side: 70.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 12.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(3);
        let coverage = Coverage::build(&d);
        let mut unread = TagSet::all_unread(d.n_tags());
        let mut arena = SlotArena::new();
        arena.prepare(&coverage, &unread, d.n_readers());
        assert!(arena.take_allocs() > 0, "cold prepare sizes the buffers");
        for t in 0..30 {
            unread.mark_read(t);
            arena.prepare(&coverage, &unread, d.n_readers());
        }
        assert_eq!(arena.take_allocs(), 0, "warm prepares must not allocate");
    }
}
