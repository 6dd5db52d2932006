//! # ear-graph
//!
//! Graph substrate for the ear-decomposition shortest-path/cycle suite.
//!
//! The central type is [`CsrGraph`], a compact compressed-sparse-row
//! representation of an **undirected weighted multigraph**: parallel edges
//! and self-loops are first-class citizens because the reduced graphs
//! produced by degree-2 chain contraction (see the `ear-decomp` crate)
//! naturally contain both, and the minimum-cycle-basis algorithms must see
//! them as independent cycle generators.
//!
//! Design points, following the conventions of high-performance sparse graph
//! codes:
//!
//! * vertices and edges are dense `u32` ids ([`VertexId`], [`EdgeId`]);
//! * weights are exact `u64` integers ([`Weight`]) with an [`INF`] sentinel —
//!   fractional inputs should be fixed-point scaled by the caller, which
//!   keeps every distance comparison in the test-suite exact. A weight may
//!   be at most `INF` (construction panics above it, where the relaxations'
//!   `d + w` would wrap); a weight of exactly `INF` means "no edge";
//! * adjacency is a single flat `(neighbor, edge-id)` array addressed by a
//!   per-vertex offset table, so traversals are cache-linear;
//! * algorithms ([`dijkstra`](crate::dijkstra::dijkstra), BFS/DFS, spanning
//!   forests) are instrumented with operation counters that the
//!   heterogeneous cost model in `ear-hetero` consumes.

pub mod arena;
pub mod builder;
pub mod csr;
pub mod dijkstra;
pub mod engine;
pub mod io;
pub mod pool;
pub mod spanning;
pub mod subgraph;
pub mod traverse;
pub mod types;
pub mod view;

pub use arena::{CsrArena, CsrSpan};
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dijkstra::{dijkstra, dijkstra_tree, dijkstra_with_stats, DijkstraStats, SsspTree};
pub use engine::{with_engine, SsspEngine};
pub use spanning::{non_tree_edges, spanning_forest, tree_edge_flags};
pub use subgraph::{
    edge_subgraph, edge_subgraph_into_arena, induced_subgraph, CompactSubgraphMap, SubgraphMap,
    SubgraphScratch,
};
pub use traverse::{bfs, bfs_tree, connected_components, BfsTree, Components};
pub use types::{dist_add, Edge, EdgeId, VertexId, Weight, INF};
pub use view::CsrView;
