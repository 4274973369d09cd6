//! Connected components.

use crate::csr::Csr;

/// Labels each node with a component id in `0..count`; ids are assigned in
/// order of the smallest node in each component, so the labelling is
/// deterministic. Returns `(labels, count)`.
pub fn connected_components(g: &Csr) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &t in g.neighbors(v) {
                let t = t as usize;
                if label[t] == usize::MAX {
                    label[t] = next;
                    stack.push(t);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_components() {
        let g = Csr::from_edges(0, &[]);
        let (labels, count) = connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }

    #[test]
    fn edgeless_graph_is_all_singletons() {
        let g = Csr::from_edges(4, &[]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 4);
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_components() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels, vec![0, 0, 0, 1, 2, 2]);
    }

    #[test]
    fn labels_are_deterministic_by_smallest_node() {
        let g = Csr::from_edges(5, &[(3, 4), (0, 1)]);
        let (labels, _) = connected_components(&g);
        assert_eq!(labels[0], 0); // component containing node 0 gets id 0
        assert_eq!(labels[2], 1);
        assert_eq!(labels[3], 2);
    }
}
