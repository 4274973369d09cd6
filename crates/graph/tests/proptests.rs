//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rfid_graph::{
    connected_components, degeneracy_order, hop_distances, k_hop_ball, max_weight_independent_set,
    Csr,
};

/// Arbitrary graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Csr> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|(a, b)| a != b).collect();
            Csr::from_edges(n, &edges)
        })
    })
}

/// Reference all-pairs shortest hop distances (BFS from each node).
#[allow(clippy::needless_range_loop)] // node ids index the distance matrix
fn floyd_warshall(g: &Csr) -> Vec<Vec<u64>> {
    let n = g.n();
    const INF: u64 = u64::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for v in 0..n {
        d[v][v] = 0;
        for &t in g.neighbors(v) {
            d[v][t as usize] = 1;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_roundtrips_edges(g in arb_graph(20)) {
        let rebuilt = Csr::from_edges(g.n(), &g.edges());
        prop_assert_eq!(&g, &rebuilt);
        // neighbour lists sorted + deduped
        for v in 0..g.n() {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "row {v} not strictly sorted");
        }
        // handshake lemma
        let deg_sum: usize = (0..g.n()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.m());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // node ids index the distance matrix
    fn bfs_matches_floyd_warshall(g in arb_graph(16)) {
        let fw = floyd_warshall(&g);
        for src in 0..g.n() {
            let d = hop_distances(&g, src);
            for v in 0..g.n() {
                let expect = fw[src][v];
                if expect >= u64::MAX / 4 {
                    prop_assert_eq!(d[v], u32::MAX);
                } else {
                    prop_assert_eq!(d[v] as u64, expect);
                }
            }
        }
    }

    #[test]
    fn balls_are_monotone_and_match_hop_distances(g in arb_graph(16), src_raw in 0usize..16, r in 0u32..6) {
        let src = src_raw % g.n();
        let ball = k_hop_ball(&g, src, r);
        let bigger = k_hop_ball(&g, src, r + 1);
        prop_assert!(ball.iter().all(|v| bigger.contains(v)), "balls must be monotone");
        let dist = hop_distances(&g, src);
        let within: Vec<usize> = (0..g.n()).filter(|&v| dist[v] <= r).collect();
        prop_assert_eq!(ball, within);
    }

    #[test]
    fn components_partition_and_respect_edges(g in arb_graph(24)) {
        let (labels, count) = connected_components(&g);
        prop_assert_eq!(labels.len(), g.n());
        prop_assert!(labels.iter().all(|&c| c < count));
        for (a, b) in g.edges() {
            prop_assert_eq!(labels[a], labels[b]);
        }
        // unreachable ⇒ different components (check via BFS from node 0)
        if g.n() > 0 {
            let d = hop_distances(&g, 0);
            for v in 0..g.n() {
                prop_assert_eq!(d[v] != u32::MAX, labels[v] == labels[0]);
            }
        }
    }

    #[test]
    fn degeneracy_order_property(g in arb_graph(20)) {
        let (order, d) = degeneracy_order(&g);
        prop_assert_eq!(order.len(), g.n());
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        let mut max_later = 0;
        for v in 0..g.n() {
            let later = g.neighbors(v).iter().filter(|&&t| pos[t as usize] > pos[v]).count();
            max_later = max_later.max(later);
        }
        prop_assert_eq!(max_later, d, "degeneracy must be tight for smallest-last");
        // degeneracy bounded by max degree
        prop_assert!(d <= g.max_degree());
    }

    #[test]
    fn mwis_is_independent_and_dominant(g in arb_graph(13), wseed in 0u64..1000) {
        let n = g.n();
        let weights: Vec<f64> = (0..n)
            .map(|i| ((i as u64 * 37 + wseed * 13) % 11) as f64 + 0.25)
            .collect();
        let best = max_weight_independent_set(&g, &weights);
        prop_assert!(g.is_independent_set(&best));
        let best_w: f64 = best.iter().map(|&v| weights[v]).sum();
        // dominates every independent set (exhaustive: n ≤ 13)
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if g.is_independent_set(&set) {
                let w: f64 = set.iter().map(|&v| weights[v]).sum();
                prop_assert!(w <= best_w + 1e-9);
            }
        }
    }

    #[test]
    fn induced_subgraph_is_faithful(g in arb_graph(20), pick in proptest::collection::vec(0usize..20, 0..12)) {
        let nodes: Vec<usize> = pick.into_iter().filter(|&v| v < g.n()).collect();
        let (sub, map) = g.induced_subgraph(&nodes);
        prop_assert_eq!(sub.n(), map.len());
        for i in 0..sub.n() {
            for j in (i + 1)..sub.n() {
                prop_assert_eq!(sub.has_edge(i, j), g.has_edge(map[i], map[j]));
            }
        }
    }
}
