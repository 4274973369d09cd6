#![warn(missing_docs)]
//! # rfid-graph
//!
//! General-purpose undirected-graph substrate for the RFID scheduling
//! library.
//!
//! The paper's location-free algorithms (Algorithms 2 and 3) operate purely
//! on the *interference graph* `G = (V, E)` — readers are nodes, an edge
//! joins two readers iff one lies in the other's interference region. This
//! crate supplies the graph machinery those algorithms (and the Colorwave
//! baseline) need:
//!
//! * a compact CSR ([`Csr`]) adjacency representation,
//! * BFS `r`-hop neighbourhoods (`N(v)^r` in the paper's notation),
//! * connected components,
//! * a proper-colouring check (Colorwave's target),
//! * degeneracy orderings (used by branch-and-bound pruning),
//! * an exact maximum-weight independent-set solver for *additive* weights,
//!   used as a unit-test oracle for the schedulers' non-additive search,
//! * the growth function `f(r)` behind the Theorem 3/5 premise check.

pub mod bfs;
pub mod coloring;
pub mod components;
pub mod csr;
pub mod degeneracy;
pub mod growth;
pub mod mwis;

pub use bfs::{hop_distances, k_hop_ball, BfsScratch};
pub use coloring::is_proper_coloring;
pub use components::connected_components;
pub use csr::Csr;
pub use degeneracy::degeneracy_order;
pub use growth::{ball_independence_number, clustering_coefficient, growth_function};
pub use mwis::max_weight_independent_set;
