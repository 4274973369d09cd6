//! The memoised dynamic program over relevant squares.
//!
//! `MWFS(S, I)` (paper Algorithm 1): the best feasible set of surviving
//! disks strictly inside square `S`, compatible with the boundary context
//! `I` (already-chosen coarser-level disks whose interference disks
//! intersect `S`). For each candidate set `D` of own-level disks (at most
//! `Λ`, pairwise independent, independent of `I`) the children's memoised
//! solutions under context `(I ∪ D)` are combined; candidates are compared
//! by the **exact** weight `w(X ∪ I)` — never by adding partial weights,
//! because `w` is sub-additive.
//!
//! Leaf squares skip the enumeration entirely and call the exact
//! branch-and-bound with `I` as the fixed base, which is both faster and
//! exactly the `D`-scan's limit behaviour.

use super::survivors::Survivors;
use crate::exact::exact_mwfs_restricted;
use crate::scheduler::OneShotInput;
use rfid_geometry::SquareId;
use rfid_model::{ReaderId, WeightEvaluator};
use std::collections::HashMap;

/// Cap on enumerated `D` sets per `(S, I)` subproblem — a safety valve for
/// pathological inputs (hundreds of same-level disks in one square). The
/// paper's 50-reader instances never approach it.
const MAX_ENUMERATIONS: usize = 100_000;

pub(super) struct DpSolver<'a, 'b> {
    input: &'a OneShotInput<'b>,
    survivors: &'a Survivors,
    lambda_cap: usize,
    weights: WeightEvaluator<'a>,
    memo: HashMap<(SquareId, Vec<u32>), Vec<ReaderId>>,
}

impl<'a, 'b> DpSolver<'a, 'b> {
    pub(super) fn new(
        input: &'a OneShotInput<'b>,
        survivors: &'a Survivors,
        lambda_cap: usize,
    ) -> Self {
        DpSolver {
            input,
            survivors,
            lambda_cap: lambda_cap.max(1),
            weights: WeightEvaluator::new(input.coverage),
            memo: HashMap::new(),
        }
    }

    /// `MWFS(S, I)`: best set of survivors inside `S`'s subtree compatible
    /// with context `I` (global reader ids, sorted). Returns the chosen
    /// readers (excluding `I`).
    pub(super) fn solve(&mut self, square: SquareId, context: &[ReaderId]) -> Vec<ReaderId> {
        // Only the context members whose disks touch this square constrain
        // anything inside it; filtering keeps memo keys canonical and small.
        let relevant: Vec<ReaderId> = context
            .iter()
            .copied()
            .filter(|&v| self.survivors.disk_intersects(v, square))
            .collect();
        let key = (
            square,
            relevant.iter().map(|&v| v as u32).collect::<Vec<u32>>(),
        );
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let result = self.solve_uncached(square, &relevant);
        self.memo.insert(key, result.clone());
        result
    }

    fn solve_uncached(&mut self, square: SquareId, context: &[ReaderId]) -> Vec<ReaderId> {
        let graph = self.input.graph;
        // Own-level candidates independent of the context.
        let own: Vec<ReaderId> = self
            .survivors
            .tree
            .own_disks(square)
            .iter()
            .copied()
            .filter(|&v| context.iter().all(|&u| !graph.has_edge(u, v)))
            .collect();
        let children = self.survivors.tree.children(square);

        if children.is_empty() {
            // Leaf: exact best D ⊆ own under fixed base `context`.
            return exact_mwfs_restricted(self.input, &own, context);
        }

        // Internal square: enumerate independent D ⊆ own, |D| ≤ Λ.
        let mut best: Vec<ReaderId> = Vec::new();
        let mut best_w = 0usize;
        let mut first = true;
        let mut enumerated = 0usize;
        let mut d: Vec<ReaderId> = Vec::new();
        // Recursive subset enumeration expressed iteratively via an explicit
        // stack of (next index to consider).
        self.enumerate(
            square,
            context,
            children,
            &own,
            0,
            &mut d,
            &mut enumerated,
            &mut |this, x| {
                let w = this.weights.weight(
                    &x.iter()
                        .copied()
                        .chain(context.iter().copied())
                        .collect::<Vec<_>>(),
                    this.input.unread,
                );
                if first || w > best_w || (w == best_w && x.len() < best.len()) {
                    first = false;
                    best_w = w;
                    best = x;
                }
            },
        );
        best
    }

    /// Enumerates candidate sets `D` (independent subsets of `own[from..]`
    /// of size ≤ Λ), completes each with children solutions and feeds the
    /// resulting `X` to `emit`.
    #[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
    fn enumerate(
        &mut self,
        square: SquareId,
        context: &[ReaderId],
        children: &[SquareId],
        own: &[ReaderId],
        from: usize,
        d: &mut Vec<ReaderId>,
        enumerated: &mut usize,
        emit: &mut impl FnMut(&mut Self, Vec<ReaderId>),
    ) {
        *enumerated += 1;
        if *enumerated > MAX_ENUMERATIONS {
            return;
        }
        // Complete the current D with children's solutions.
        let mut x: Vec<ReaderId> = d.clone();
        let child_context: Vec<ReaderId> = {
            let mut c: Vec<ReaderId> = context.iter().copied().chain(d.iter().copied()).collect();
            c.sort_unstable();
            c
        };
        for &child in children {
            x.extend(self.solve(child, &child_context));
        }
        emit(self, x);
        // Extend D.
        if d.len() >= self.lambda_cap {
            return;
        }
        for i in from..own.len() {
            let v = own[i];
            if d.iter().all(|&u| !self.input.graph.has_edge(u, v)) {
                d.push(v);
                self.enumerate(square, context, children, own, i + 1, d, enumerated, emit);
                d.pop();
            }
        }
    }
}
