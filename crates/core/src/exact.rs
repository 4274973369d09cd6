//! Exact maximum weighted feasible scheduling set by branch and bound.
//!
//! The weight `w(X)` is sub-additive, not additive, so this is *not* plain
//! maximum-weight independent set. The solver branches include/exclude over
//! candidates sorted by singleton weight and prunes with the sub-additivity
//! bound `w(X ∪ Y) ≤ w(X) + Σ_{v∈Y} w({v})`: once the current weight plus
//! the remaining singleton mass cannot beat the incumbent, the branch dies.
//!
//! Exponential in the worst case — it is the paper's implicit "enumeration"
//! primitive: Algorithm 2/3 call it on small `r`-hop neighbourhoods, the
//! PTAS calls it inside grid squares, tests call it for ground truth on
//! instances up to a few dozen readers.

use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_graph::Csr;
use rfid_model::{Coverage, IncrementalCore, ReaderId, TagSet};

/// Budget on branch-and-bound node expansions. When exceeded the search
/// returns the best set found so far (anytime behaviour) — on the paper's
/// instance sizes the budget is never reached.
pub const DEFAULT_NODE_BUDGET: u64 = 20_000_000;

/// Best `X ⊆ candidates` such that `X ∪ base` is feasible, maximising
/// `w(X ∪ base)` under `input`'s unread set.
///
/// * Feasibility is checked through `input.graph`, and the search's bound
///   keys are `input`'s singleton weights.
/// * `base` is a feasible context set (disjoint from `candidates`); its
///   members are fixed "on" and participate in RRc weight interactions.
///   Pass `&[]` for a plain MWFS.
///
/// Returns the chosen subset of `candidates` only (not including `base`),
/// sorted ascending.
pub fn exact_mwfs_restricted(
    input: &OneShotInput<'_>,
    candidates: &[ReaderId],
    base: &[ReaderId],
) -> Vec<ReaderId> {
    exact_mwfs_budgeted(input, candidates, base, DEFAULT_NODE_BUDGET).0
}

/// As [`exact_mwfs_restricted`], also reporting whether the search completed
/// within the node budget (`true`) or returned an anytime best (`false`).
pub fn exact_mwfs_budgeted(
    input: &OneShotInput<'_>,
    candidates: &[ReaderId],
    base: &[ReaderId],
    node_budget: u64,
) -> (Vec<ReaderId>, bool) {
    let mut scratch = MwfsScratch::new(input.coverage, input.unread);
    let mut out = Vec::new();
    let (_, complete) = exact_mwfs_weighted(
        &mut scratch,
        input.coverage,
        input.graph,
        candidates,
        base,
        node_budget,
        input.singleton_weights(),
        &mut out,
    );
    (out, complete)
}

/// Reusable solver state: the weight structures cost `O(n_tags)` to
/// build, which dominated [`exact_mwfs_budgeted`] when Algorithm 2 calls
/// it once per hop ball (a few dozen candidates each). Callers running
/// many restricted searches against the *same* unread set construct one
/// scratch per slot and pass it to [`exact_mwfs_weighted`];
/// [`reset`](Self::reset) re-snapshots it for the next slot.
///
/// Besides the weight cores the scratch also owns the search's working
/// vectors (candidate list, suffix bounds, chosen/best stacks), so a warm
/// restricted search performs no heap allocation at all — Algorithm 2
/// runs one per seed, about a million times at n = 100k.
///
/// The scratch borrows nothing, so long-lived schedulers keep one across
/// covering-schedule slots (inside a [`crate::arena::SlotArena`]): a warm
/// reset is a packed-word memcpy plus a stamp bump, never an allocation.
#[derive(Debug, Clone, Default)]
pub struct MwfsScratch {
    inc: IncrementalCore,
    cands: Vec<(ReaderId, usize)>,
    suffix: Vec<usize>,
    chosen: Vec<ReaderId>,
    best: Vec<ReaderId>,
    /// Local-evaluator arena (see [`LocalEval`]): the candidates' unread
    /// tags, dedup'd and sorted ascending — the dense index space the
    /// search counts over.
    local_union: Vec<u32>,
    /// Flat per-candidate lists of indexes into `local_union`.
    local_lists: Vec<u32>,
    /// Candidate `i`'s list is `local_lists[local_offsets[i]..local_offsets[i+1]]`.
    local_offsets: Vec<u32>,
    /// Coverage multiplicity per union tag for the currently-chosen set.
    local_counts: Vec<u32>,
    /// Candidate-pair adjacency as bitmasks over candidate indexes:
    /// `local_adj[i] & (1 << j) != 0` iff candidates `i`, `j` interfere.
    local_adj: Vec<u64>,
}

impl MwfsScratch {
    /// Builds the scratch for one (coverage, unread) snapshot.
    pub fn new(coverage: &Coverage, unread: &TagSet) -> Self {
        let mut s = MwfsScratch::default();
        s.reset(coverage, unread);
        s
    }

    /// Re-snapshots the unread set; allocation-free once warm.
    pub fn reset(&mut self, coverage: &Coverage, unread: &TagSet) {
        self.inc.reset(coverage, unread);
    }

    /// Fresh heap allocations since the last call (the `mcs.alloc` feed).
    pub fn take_allocs(&mut self) -> u64 {
        self.inc.take_allocs()
    }
}

/// The allocation-free core behind every exact-MWFS entry point: writes
/// the best subset of `candidates` (sorted ascending) into `out` and
/// returns `(w(out ∪ base), completed-within-budget)` — the weight the
/// branch and bound already tracked, so callers comparing weights (the
/// Algorithm 2 growth test) skip a full re-evaluation.
///
/// The unread set is the one snapshotted in `scratch`, and `coverage`
/// must be the table it was reset against; the scratch is returned clean
/// (empty active set) for the next call.
///
/// `singleton` must satisfy `singleton[v] == w({v})` under the scratch's
/// unread snapshot for every candidate: the search reads its bound keys
/// from it. Every caller already holds this array, from a
/// [`OneShotInput`] or, for Algorithm 3, from its gossiped local view.
///
/// Zero-singleton candidates are dropped before the search. They can
/// never be explored: candidates are ordered by descending singleton
/// weight, so at the first zero-weight index the remaining suffix mass is
/// zero and the sub-additive prune `w + suffix ≤ best_w` (with
/// `best_w ≥ w` after the just-performed incumbent update) always fires.
/// Dropping them only shrinks the sorted prefix work, never the result.
#[allow(clippy::too_many_arguments)] // the search inputs, its bound keys and the output
pub fn exact_mwfs_weighted(
    scratch: &mut MwfsScratch,
    coverage: &Coverage,
    graph: &Csr,
    candidates: &[ReaderId],
    base: &[ReaderId],
    node_budget: u64,
    singleton: &[usize],
    out: &mut Vec<ReaderId>,
) -> (usize, bool) {
    debug_assert!(graph.is_independent_set(base), "base must be feasible");
    let MwfsScratch {
        inc,
        cands,
        suffix,
        chosen,
        best,
        local_union,
        local_lists,
        local_offsets,
        local_counts,
        local_adj,
    } = scratch;
    debug_assert!(inc.active().is_empty(), "scratch passed in dirty");

    // Keep only candidates independent of every base reader, with their
    // singleton weights; order by descending singleton weight (ties by id)
    // so strong sets are found early and the bound bites. Zero-weight
    // candidates are unreachable (see above) and dropped here.
    cands.clear();
    cands.extend(
        candidates
            .iter()
            .copied()
            .filter(|&v| base.iter().all(|&b| b != v && !graph.has_edge(b, v)))
            .map(|v| {
                // The core is clean, so its add-delta is w({v}).
                debug_assert_eq!(singleton[v] as isize, inc.delta_if_added(coverage, v));
                (v, singleton[v])
            })
            .filter(|&(_, w)| w > 0),
    );
    cands.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    cands.dedup_by_key(|c| c.0);

    // The overwhelmingly common Algorithm 2 case at scale: one positive
    // candidate, no base context. The search would expand exactly three
    // nodes and pick it; answer directly (budget ≥ 3 keeps the
    // `complete` flag identical to the generic path).
    if base.is_empty() && cands.len() == 1 && node_budget >= 3 {
        let (v, w) = cands[0];
        out.clear();
        out.push(v);
        return (w, true);
    }

    // Suffix singleton-mass for the sub-additive upper bound.
    suffix.clear();
    suffix.resize(cands.len() + 1, 0);
    for i in (0..cands.len()).rev() {
        suffix[i] = suffix[i + 1] + cands[i].1;
    }

    chosen.clear();
    best.clear();
    // Base-free searches — every Algorithm 2/3 hop ball and the one-shot
    // exact scheduler — run against a *local* mirror of the incremental
    // core. Only the candidates' unread tags can ever move the weight, so
    // those tags are remapped once into a dense union index and the
    // branch and bound bumps cache-resident counters per node instead of
    // issuing random accesses into the O(n_tags) count arrays. The total
    // singleton mass `suffix[0]` bounds the flat list length, giving an
    // a-priori size gate that keeps the arena small. The traversal is the
    // same `Search` either way — same prunes, node counts, tie-breaks —
    // and the local weight equals the global one on every visited set
    // (tags outside the union are read or uncovered and contribute 0), so
    // the answer is bit-identical by construction.
    let (best_w, complete) = if base.is_empty() && suffix[0] <= LOCAL_TAGS_MAX {
        // Pairwise interference as bitmasks over candidate indexes: one
        // CSR probe per pair here replaces a probe per chosen member per
        // search node. A candidate set that turns out to be a clique —
        // common for 1-hop balls in dense regions — is answered outright:
        // every pair conflicts, so the optimum is the strongest single
        // candidate, exactly the incumbent the ordered search locks in
        // first and never displaces. The budget gate over-counts the
        // clique search's nodes ((k+1)² bounds its ≤ one-include paths),
        // keeping the `complete` flag identical even under toy budgets.
        let k = cands.len();
        let adj = if k <= 64 {
            local_adj.clear();
            local_adj.resize(k, 0);
            for i in 1..k {
                for j in 0..i {
                    if graph.has_edge(cands[i].0, cands[j].0) {
                        local_adj[i] |= 1 << j;
                        local_adj[j] |= 1 << i;
                    }
                }
            }
            let full = if k == 64 { !0u64 } else { (1u64 << k) - 1 };
            if k >= 2
                && node_budget >= ((k as u64) + 1).pow(2)
                && local_adj
                    .iter()
                    .enumerate()
                    .all(|(i, &m)| m == full ^ (1 << i))
            {
                let (v, w) = cands[0];
                out.clear();
                out.push(v);
                return (w, true);
            }
            true
        } else {
            false
        };
        local_lists.clear();
        local_offsets.clear();
        local_offsets.push(0);
        for &(v, _) in cands.iter() {
            local_lists.extend(
                coverage
                    .tags_of(v)
                    .iter()
                    .copied()
                    .filter(|&t| inc.is_unread(t as usize)),
            );
            local_offsets.push(local_lists.len() as u32);
        }
        // Remap global tag ids to dense union indexes. Each candidate's
        // segment is sorted ascending (coverage rows are), so for the few-
        // candidate searches Algorithm 2 issues by the million, a k-way
        // min-scan merge assigns indexes in one pass — no sort, no
        // dedup, no binary search. Wide candidate sets take the sort
        // path, where O(total log total) beats O(total · k).
        const MERGE_K: usize = 8;
        let union_len = if cands.len() <= MERGE_K {
            let mut cur = [0usize; MERGE_K];
            for (i, c) in cur.iter_mut().enumerate().take(cands.len()) {
                *c = local_offsets[i] as usize;
            }
            let mut next_id = 0u32;
            loop {
                let mut min = u32::MAX;
                for i in 0..cands.len() {
                    if cur[i] < local_offsets[i + 1] as usize {
                        min = min.min(local_lists[cur[i]]);
                    }
                }
                if min == u32::MAX {
                    break;
                }
                for i in 0..cands.len() {
                    let c = cur[i];
                    if c < local_offsets[i + 1] as usize && local_lists[c] == min {
                        local_lists[c] = next_id;
                        cur[i] += 1;
                    }
                }
                next_id += 1;
            }
            next_id as usize
        } else {
            local_union.clear();
            local_union.extend_from_slice(local_lists);
            local_union.sort_unstable();
            local_union.dedup();
            for t in local_lists.iter_mut() {
                *t = local_union
                    .binary_search(t)
                    .expect("tag indexes its own union") as u32;
            }
            local_union.len()
        };
        // The counter arena only grows; entries are zero between calls
        // because every search unwinds its additions on the way out
        // (including budget-exhausted branches — the unwind sits after
        // the recursive call, not inside it).
        if local_counts.len() < union_len {
            local_counts.resize(union_len, 0);
        }
        let mut search = Search {
            graph,
            cands: &cands[..],
            suffix: &suffix[..],
            eval: LocalEval {
                lists: local_lists,
                offsets: local_offsets,
                counts: local_counts,
                w: 0,
            },
            adj: adj.then_some(&local_adj[..]),
            mask: 0,
            chosen: &mut *chosen,
            best: &mut *best,
            best_w: 0,
            nodes: 0,
            budget: node_budget,
            complete: true,
        };
        search.go(0);
        (search.best_w, search.complete)
    } else {
        for &b in base {
            inc.add(coverage, b);
        }
        let base_weight = inc.weight();
        let mut search = Search {
            graph,
            cands: &cands[..],
            suffix: &suffix[..],
            eval: GlobalEval {
                coverage,
                inc: &mut *inc,
            },
            adj: None,
            mask: 0,
            chosen: &mut *chosen,
            best: &mut *best,
            best_w: base_weight,
            nodes: 0,
            budget: node_budget,
            complete: true,
        };
        search.go(0);
        let result = (search.best_w, search.complete);
        // Leave the scratch clean: `go` unwinds its own additions, the
        // base context is ours to undo.
        for &b in base {
            inc.remove(coverage, b);
        }
        result
    };
    out.clear();
    out.extend_from_slice(best);
    out.sort_unstable();
    (best_w, complete)
}

/// Flat-list size cap for the local evaluator. Big enough that every hop
/// ball and every test-scale whole-instance search qualifies; a search
/// over more unread tag mass than this falls back to the global core,
/// whose arrays it would thrash anyway.
const LOCAL_TAGS_MAX: usize = 4096;

/// The branch and bound's view of `w(chosen ∪ base)`: `O(1)` reads plus
/// incremental add/remove of candidate `idx`. Two implementations share
/// the one `Search` below, so both paths take identical decisions at
/// identical nodes — the local mirror cannot drift from the reference.
trait DeltaWeight {
    fn weight(&self) -> usize;
    fn add(&mut self, idx: usize, v: ReaderId);
    fn remove(&mut self, idx: usize, v: ReaderId);
}

/// The reference evaluator: the persistent [`IncrementalCore`] over the
/// full tag space. Handles base contexts (the PTAS grid squares) and
/// arbitrarily heavy candidate sets.
struct GlobalEval<'s> {
    coverage: &'s Coverage,
    inc: &'s mut IncrementalCore,
}

impl DeltaWeight for GlobalEval<'_> {
    #[inline]
    fn weight(&self) -> usize {
        self.inc.weight()
    }
    #[inline]
    fn add(&mut self, _idx: usize, v: ReaderId) {
        self.inc.add(self.coverage, v);
    }
    #[inline]
    fn remove(&mut self, _idx: usize, v: ReaderId) {
        self.inc.remove(self.coverage, v);
    }
}

/// The scaled-down mirror for base-free searches: candidate `idx`'s
/// unread tags as indexes into a dense union array, with coverage
/// multiplicities in `counts`. `w` tracks the exactly-once unread count
/// under the same bump rules as the global core; every union tag is
/// unread by construction, so no membership test is needed per bump.
struct LocalEval<'s> {
    lists: &'s [u32],
    offsets: &'s [u32],
    counts: &'s mut [u32],
    w: usize,
}

impl LocalEval<'_> {
    #[inline]
    fn list(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx] as usize..self.offsets[idx + 1] as usize
    }
}

impl DeltaWeight for LocalEval<'_> {
    #[inline]
    fn weight(&self) -> usize {
        self.w
    }
    #[inline]
    fn add(&mut self, idx: usize, _v: ReaderId) {
        for i in self.list(idx) {
            let c = &mut self.counts[self.lists[i] as usize];
            *c += 1;
            match *c {
                1 => self.w += 1,
                2 => self.w -= 1,
                _ => {}
            }
        }
    }
    #[inline]
    fn remove(&mut self, idx: usize, _v: ReaderId) {
        for i in self.list(idx) {
            let c = &mut self.counts[self.lists[i] as usize];
            *c -= 1;
            match *c {
                0 => self.w -= 1,
                1 => self.w += 1,
                _ => {}
            }
        }
    }
}

struct Search<'s, E> {
    graph: &'s Csr,
    cands: &'s [(ReaderId, usize)],
    suffix: &'s [usize],
    eval: E,
    /// Precomputed candidate-pair adjacency (≤ 64 candidates), with the
    /// chosen set mirrored in `mask`: feasibility of an include becomes
    /// one AND instead of a CSR probe per chosen member. `None` falls
    /// back to probing the graph.
    adj: Option<&'s [u64]>,
    mask: u64,
    chosen: &'s mut Vec<ReaderId>,
    best: &'s mut Vec<ReaderId>,
    best_w: usize,
    nodes: u64,
    budget: u64,
    complete: bool,
}

impl<E: DeltaWeight> Search<'_, E> {
    fn go(&mut self, idx: usize) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.complete = false;
            return;
        }
        let w = self.eval.weight();
        if w > self.best_w {
            self.best_w = w;
            self.best.clear();
            self.best.extend_from_slice(self.chosen);
        }
        if idx >= self.cands.len() || w + self.suffix[idx] <= self.best_w {
            return;
        }
        // Second-chance bound when the O(1) suffix test is too loose:
        // candidates conflicting with the chosen set can never be added in
        // this subtree, so their mass doesn't belong in the optimism. Any
        // subtree pruned here has w ≤ bound ≤ best_w throughout, and best
        // only moves on strict improvement — the argmax (and its DFS-order
        // tie-break) is untouched; only visited-node counts shrink.
        if self.mask != 0 {
            if let Some(adj) = self.adj {
                let mut bound = w;
                for (&a, c) in adj[idx..].iter().zip(&self.cands[idx..]) {
                    if a & self.mask == 0 {
                        bound += c.1;
                    }
                }
                if bound <= self.best_w {
                    return;
                }
            }
        }
        let (v, _) = self.cands[idx];
        // Include v if independent from everything chosen so far.
        let ok = match self.adj {
            Some(adj) => adj[idx] & self.mask == 0,
            None => self.chosen.iter().all(|&u| !self.graph.has_edge(u, v)),
        };
        if ok {
            self.eval.add(idx, v);
            self.chosen.push(v);
            if self.adj.is_some() {
                self.mask |= 1 << idx;
            }
            self.go(idx + 1);
            if self.adj.is_some() {
                self.mask &= !(1 << idx);
            }
            self.chosen.pop();
            self.eval.remove(idx, v);
        }
        // Exclude v.
        self.go(idx + 1);
    }
}

/// The exact algorithm packaged as a [`OneShotScheduler`] (ground truth for
/// tests and the approximation-ratio ablation; exponential — keep `n`
/// small).
#[derive(Debug, Clone, Default)]
pub struct ExactScheduler {
    /// Optional override of the node budget.
    pub node_budget: Option<u64>,
}

impl OneShotScheduler for ExactScheduler {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        // Zero-weight readers never enter the search anyway.
        exact_mwfs_budgeted(
            input,
            input.positive_readers(),
            &[],
            self.node_budget.unwrap_or(DEFAULT_NODE_BUDGET),
        )
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::{Point, Rect};
    use rfid_model::interference::interference_graph;
    use rfid_model::{Coverage, Deployment};

    /// The Figure-2 deployment: exact MWFS must prefer {A, C} over
    /// {A, B, C}.
    fn figure2() -> (Deployment, Coverage, Csr) {
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
        let g = interference_graph(&d);
        (d, c, g)
    }

    #[test]
    fn figure2_optimum_drops_the_middle_reader() {
        let (d, c, g) = figure2();
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let best = exact_mwfs_restricted(&input, &[0, 1, 2], &[]);
        assert_eq!(best, vec![0, 2]);
        assert!(d.is_feasible(&best));
    }

    #[test]
    fn base_context_changes_the_optimum() {
        let (d, c, g) = figure2();
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        // With B fixed on, adding A and C costs their overlap tags with B:
        // w({A,B,C}) = 3 vs w({B,A}) = 3, w({B,C}) = 3, w({B}) = 3 — all tie;
        // solver may return any subset achieving 3. Just check feasible +
        // weight.
        let best = exact_mwfs_restricted(&input, &[0, 2], &[1]);
        let mut whole = best.clone();
        whole.push(1);
        let mut w = WeightEvaluator::new(&c);
        assert_eq!(w.weight(&whole, &unread), 3);
    }

    #[test]
    fn adjacent_candidates_to_base_are_dropped() {
        let (d, c, g) = figure2();
        // Make readers adjacent by re-using graph from a tighter deployment:
        // here just verify via API: candidates equal to base are filtered.
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let best = exact_mwfs_restricted(&input, &[1], &[1]);
        assert!(best.is_empty());
    }

    #[test]
    fn exhaustive_cross_check_small_random() {
        use rfid_model::scenario::{Scenario, ScenarioKind};
        use rfid_model::RadiusModel;
        for seed in 0..5u64 {
            let d = Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 10,
                n_tags: 60,
                region_side: 60.0,
                radius_model: RadiusModel::PoissonPair {
                    lambda_interference: 12.0,
                    lambda_interrogation: 6.0,
                },
            }
            .generate(seed);
            let c = Coverage::build(&d);
            let g = interference_graph(&d);
            let unread = TagSet::all_unread(d.n_tags());
            let input = OneShotInput::new(&d, &c, &g, &unread);
            let all: Vec<usize> = (0..10).collect();
            let best = exact_mwfs_restricted(&input, &all, &[]);
            assert!(d.is_feasible(&best), "seed {seed}");
            let mut w = WeightEvaluator::new(&c);
            let best_w = w.weight(&best, &unread);
            // Brute force all 2^10 subsets.
            let mut brute = 0usize;
            for mask in 0u32..(1 << 10) {
                let set: Vec<usize> = (0..10).filter(|&i| mask >> i & 1 == 1).collect();
                if g.is_independent_set(&set) {
                    brute = brute.max(w.weight(&set, &unread));
                }
            }
            assert_eq!(best_w, brute, "seed {seed}");
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (d, c, g) = figure2();
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let (set, complete) = exact_mwfs_budgeted(&input, &[0, 1, 2], &[], 2);
        assert!(!complete);
        // Anytime: whatever came back is feasible.
        assert!(g.is_independent_set(&set));
    }

    #[test]
    fn empty_candidates_yield_empty_set() {
        let (d, c, g) = figure2();
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        assert!(exact_mwfs_restricted(&input, &[], &[]).is_empty());
    }

    #[test]
    fn scheduler_wrapper_runs() {
        let (d, c, g) = figure2();
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let mut s = ExactScheduler::default();
        let set = s.schedule(&input);
        assert_eq!(set, vec![0, 2]);
        assert_eq!(input.weight_of(&set), 4);
    }

    use rfid_model::WeightEvaluator;
}
