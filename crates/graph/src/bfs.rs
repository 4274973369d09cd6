//! Breadth-first search and `r`-hop neighbourhoods.
//!
//! The paper's notation `N(v)^r` — "readers with hop distance at most `r`
//! from `v` in the interference graph" — is [`k_hop_ball`]. Algorithm 2
//! grows these balls (`Γ_r` lives inside `N(v)^r`), removes `N(v)^{r̄+1}`,
//! and Algorithm 3's coordinators collect `(2c+2)`-hop neighbourhood
//! information; all of those reduce to the routines here.

use crate::csr::Csr;

/// Reusable BFS state: the `O(n)` visited/distance arrays are allocated
/// once and invalidated by a stamp bump instead of a clear, so each ball
/// query costs only its output size. Schedulers that issue hundreds of
/// ball queries per slot hold one of these per thread (DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    /// Valid where `stamp_of[v] == stamp`.
    dist: Vec<u32>,
    stamp_of: Vec<u64>,
    stamp: u64,
    queue: std::collections::VecDeque<usize>,
    /// Fresh heap allocations (buffer growth events) since the last
    /// [`take_allocs`](Self::take_allocs).
    allocs: u64,
}

impl BfsScratch {
    /// Scratch sized for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        let mut s = BfsScratch::default();
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

    /// [`k_hop_ball`] into a caller-owned buffer (cleared first), sorted
    /// ascending. Identical output to the allocating form.
    pub fn ball_into(&mut self, g: &Csr, src: usize, r: u32, out: &mut Vec<usize>) {
        self.multi_ball_into(g, std::slice::from_ref(&src), r, out);
    }

    /// [`multi_source_ball`] into a caller-owned buffer (cleared first),
    /// sorted ascending. Identical output to the allocating form.
    pub fn multi_ball_into(&mut self, g: &Csr, sources: &[usize], r: u32, out: &mut Vec<usize>) {
        self.ensure(g.n());
        self.stamp += 1;
        out.clear();
        self.queue.clear();
        for &s in sources {
            if self.stamp_of[s] != self.stamp {
                self.stamp_of[s] = self.stamp;
                self.dist[s] = 0;
                out.push(s);
                self.queue.push_back(s);
            }
        }
        while let Some(v) = self.queue.pop_front() {
            let d = self.dist[v];
            if d == r {
                continue;
            }
            for &t in g.neighbors(v) {
                let t = t as usize;
                if self.stamp_of[t] != self.stamp {
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

/// Hop distances from `src` to every node; `u32::MAX` marks unreachable
/// nodes.
pub fn hop_distances(g: &Csr, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for &t in g.neighbors(v) {
            let t = t as usize;
            if dist[t] == u32::MAX {
                dist[t] = d + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// `N(v)^r`: all nodes within hop distance `r` of `src`, **including** `src`
/// itself (`N(v)^0 = {v}`). Sorted ascending.
pub fn k_hop_ball(g: &Csr, src: usize, r: u32) -> Vec<usize> {
    let mut scratch = BfsScratch::new(g.n());
    let mut out = Vec::new();
    scratch.ball_into(g, src, r, &mut out);
    out
}

/// Multi-source ball: nodes within hop distance `r` of *any* source.
/// Sorted ascending. Used when Algorithm 2 removes `N(Γ)^1`-style unions.
pub fn multi_source_ball(g: &Csr, sources: &[usize], r: u32) -> Vec<usize> {
    let mut scratch = BfsScratch::new(g.n());
    let mut out = Vec::new();
    scratch.multi_ball_into(g, sources, r, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0—1—2—3—4 path plus isolated node 5.
    fn path_plus_isolate() -> Csr {
        Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn distances_on_path() {
        let g = path_plus_isolate();
        let d = hop_distances(&g, 0);
        assert_eq!(d[..5], [0, 1, 2, 3, 4]);
        assert_eq!(d[5], u32::MAX);
    }

    #[test]
    fn ball_includes_center() {
        let g = path_plus_isolate();
        assert_eq!(k_hop_ball(&g, 2, 0), vec![2]);
        assert_eq!(k_hop_ball(&g, 2, 1), vec![1, 2, 3]);
        assert_eq!(k_hop_ball(&g, 2, 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(k_hop_ball(&g, 2, 99), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ball_on_isolated_node() {
        let g = path_plus_isolate();
        assert_eq!(k_hop_ball(&g, 5, 3), vec![5]);
    }

    #[test]
    fn multi_source_union() {
        let g = path_plus_isolate();
        assert_eq!(multi_source_ball(&g, &[0, 4], 1), vec![0, 1, 3, 4]);
        assert_eq!(multi_source_ball(&g, &[0, 5], 1), vec![0, 1, 5]);
        // duplicated sources are fine
        assert_eq!(multi_source_ball(&g, &[2, 2], 0), vec![2]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let g = Csr::from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let mut scratch = BfsScratch::new(g.n());
        scratch.take_allocs();
        let mut out = Vec::new();
        for src in 0..g.n() {
            for r in 0..4u32 {
                scratch.ball_into(&g, src, r, &mut out);
                assert_eq!(out, k_hop_ball(&g, src, r), "src {src} r {r}");
            }
        }
        scratch.multi_ball_into(&g, &[0, 6, 6], 1, &mut out);
        assert_eq!(out, multi_source_ball(&g, &[0, 6, 6], 1));
        assert_eq!(scratch.take_allocs(), 0, "warm scratch must not allocate");
    }
}
