//! Graph-colouring checks.
//!
//! Colorwave (Waldrop–Engels–Sarma, the paper's CA baseline) seeks a proper
//! colouring of the interference graph — each colour class is an
//! independent set usable as one time slot. The distributed, randomised
//! Colorwave protocol itself lives in `rfid-core::colorwave`; this module
//! provides the validity check and colour count its tests use.

use crate::csr::Csr;

/// `true` iff no edge is monochromatic and every node is coloured.
pub fn is_proper_coloring(g: &Csr, color: &[usize]) -> bool {
    if color.len() != g.n() {
        return false;
    }
    if color.contains(&usize::MAX) {
        return false;
    }
    for (a, b) in g.edges() {
        if color[a] == color[b] {
            return false;
        }
    }
    true
}

/// Number of colours used by a colouring (max + 1; 0 for the empty graph).
pub fn num_colors(color: &[usize]) -> usize {
    color.iter().copied().max().map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> Csr {
        Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    }

    #[test]
    fn proper_coloring_rejects_bad_inputs() {
        let g = cycle5();
        assert!(!is_proper_coloring(&g, &[0, 0, 1, 0, 1])); // edge (0,1) clash
        assert!(!is_proper_coloring(&g, &[0, 1])); // wrong length
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, usize::MAX])); // uncoloured
    }

    #[test]
    fn empty_graph_coloring() {
        let g = Csr::from_edges(0, &[]);
        assert!(is_proper_coloring(&g, &[]));
        assert_eq!(num_colors(&[]), 0);
    }
}
