//! Compressed-sparse-row storage for undirected weighted multigraphs.

use crate::arena::{CsrArena, CsrSpan};
use crate::types::{Edge, EdgeId, VertexId, Weight};
use crate::view::CsrView;

/// An immutable undirected weighted multigraph in CSR form.
///
/// Construction is done through [`crate::builder::GraphBuilder`] or
/// [`CsrGraph::from_edges`]; once built the graph never changes, which lets
/// every algorithm in the suite share it freely across threads (`&CsrGraph`
/// is `Send + Sync`).
///
/// A graph is the one span of its own [`CsrArena`]: the arena's single
/// construction lays it out, and every read goes through
/// [`CsrGraph::view`]. Edge `e`'s record is `edges()[e]`, and
/// `neighbors(v)` is `v`'s incidence list as `(neighbor, edge-id)` pairs in
/// ascending edge-id order. Every non-loop edge contributes one incidence
/// entry to each endpoint. A **self-loop contributes a single entry** to
/// its vertex, so [`CsrGraph::degree`] counts a self-loop once; the
/// suite's degree-based reductions only run on simple graphs where this
/// distinction is moot, and the multigraph consumers (minimum cycle basis)
/// never look at degrees.
///
/// The arena's offsets/adjacency arrays are the graph's **topology
/// layer**: the construction never looks at a weight, so
/// [`CsrGraph::reweighted`] produces a new graph that recomputes only the
/// **weight layer** (edge records + per-incidence weights) while sharing
/// the topology allocations with the original.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    arena: CsrArena,
    span: CsrSpan,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight exceeds
    /// [`INF`](crate::types::INF).
    pub fn from_edges(n: usize, list: &[(VertexId, VertexId, Weight)]) -> Self {
        let mut arena = CsrArena::new();
        let span = arena.push(n, list);
        CsrGraph { arena, span }
    }

    /// Builds a graph from pre-assembled [`Edge`] records, which it keeps
    /// without copying.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight exceeds
    /// [`INF`](crate::types::INF). A weight of exactly `INF` is legal: it
    /// is a saturated chain's weight and means "no edge". Anything above it
    /// would wrap the shortest-path relaxations' `d + w`.
    pub fn from_edge_records(n: usize, edges: Vec<Edge>) -> Self {
        let (arena, span) = CsrArena::from_records(n, edges);
        CsrGraph { arena, span }
    }

    /// The whole graph held by a one-span `arena`.
    pub(crate) fn from_arena(arena: CsrArena, span: CsrSpan) -> Self {
        debug_assert_eq!(arena.edges_len(), span.m as usize);
        CsrGraph { arena, span }
    }

    /// The same topology under new weights: `new_weights[e]` replaces the
    /// weight of edge `e` while endpoints, edge ids and adjacency order are
    /// untouched. The offsets/adjacency allocations are **shared** with
    /// `self` (no clone), and the result equals
    /// [`CsrGraph::from_edge_records`] on the reweighted edge list.
    ///
    /// # Panics
    /// Panics if `new_weights.len() != self.m()` or a weight exceeds
    /// [`INF`](crate::types::INF) (see [`CsrGraph::from_edge_records`]).
    pub fn reweighted(&self, new_weights: &[Weight]) -> CsrGraph {
        CsrGraph {
            arena: self.arena.reweighted(&[self.span], new_weights),
            span: self.span,
        }
    }

    /// True when `other` shares this graph's topology allocations (both
    /// came from the same [`CsrGraph::reweighted`] family). Pointer
    /// equality, O(1) — the customization tests use this to prove the
    /// weight swap did not clone the structure.
    pub fn shares_topology(&self, other: &CsrGraph) -> bool {
        self.arena.shares_topology(&other.arena)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.span.n as usize
    }

    /// Number of edges (parallel edges and self-loops each count once).
    #[inline]
    pub fn m(&self) -> usize {
        self.span.m as usize
    }

    /// A zero-copy [`CsrView`] of the whole graph — the borrowed currency
    /// every solver in the suite traverses.
    #[inline]
    pub fn view(&self) -> CsrView<'_> {
        self.arena.view(&self.span)
    }

    /// The full edge array.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        self.view().edges()
    }

    /// The record of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.view().edge(e)
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.view().weight(e)
    }

    /// Incidence list of `v` as `(neighbor, edge-id)` pairs.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        self.view().neighbors(v)
    }

    /// Incidence list of `v` together with the parallel per-incidence
    /// weight slice — the relaxation loops' streaming access path.
    #[inline]
    pub fn incidences(&self, v: VertexId) -> (&[(VertexId, EdgeId)], &[Weight]) {
        self.view().incidences(v)
    }

    /// Incidence-list length of `v` (self-loops counted once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.view().degree(v)
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.view().vertices()
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> Weight {
        self.view().total_weight()
    }

    /// True if the graph contains no parallel edges and no self-loops.
    pub fn is_simple(&self) -> bool {
        self.view().is_simple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::INF;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn neighbors_carry_edge_ids() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(0).to_vec();
        assert!(n0.contains(&(1, 0)));
        assert!(n0.contains(&(2, 2)));
    }

    #[test]
    fn self_loop_counts_once_in_adjacency() {
        let g = CsrGraph::from_edges(2, &[(0, 0, 5), (0, 1, 1)]);
        assert_eq!(g.degree(0), 2); // one loop entry + one edge entry
        assert_eq!(g.degree(1), 1);
        assert!(!g.is_simple());
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 4), (0, 1, 9)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert!(!g.is_simple());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_simple());
    }

    #[test]
    fn isolated_vertices_have_empty_neighborhoods() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1)]);
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_panics() {
        CsrGraph::from_edges(2, &[(0, 2, 1)]);
    }

    #[test]
    fn total_weight_sums_all_edges() {
        assert_eq!(triangle().total_weight(), 6);
    }

    #[test]
    fn incidences_stream_matches_edge_gather() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 4), (0, 1, 9), (1, 1, 7), (1, 2, 2)]);
        for v in 0..g.n() as u32 {
            let (adj, wts) = g.incidences(v);
            assert_eq!(adj, g.neighbors(v));
            assert_eq!(wts.len(), adj.len());
            for (&(_, e), &w) in adj.iter().zip(wts) {
                assert_eq!(w, g.weight(e));
            }
        }
    }

    #[test]
    fn reweighted_matches_cold_construction_and_shares_topology() {
        let list = [(0, 1, 4), (0, 1, 9), (1, 1, 7), (1, 2, 2), (2, 0, 5)];
        let g = CsrGraph::from_edges(3, &list);
        let new_w: Vec<Weight> = vec![40, 90, 70, 20, 50];
        let r = g.reweighted(&new_w);
        let cold = CsrGraph::from_edges(
            3,
            &list
                .iter()
                .zip(&new_w)
                .map(|(&(u, v, _), &w)| (u, v, w))
                .collect::<Vec<_>>(),
        );
        assert_eq!(r.edges(), cold.edges());
        for v in 0..3u32 {
            assert_eq!(r.neighbors(v), cold.neighbors(v));
            assert_eq!(r.incidences(v), cold.incidences(v));
        }
        assert!(g.shares_topology(&r));
        assert!(!g.shares_topology(&cold));
        // Original untouched.
        assert_eq!(g.weight(0), 4);
    }

    #[test]
    #[should_panic]
    fn reweighted_rejects_wrong_length() {
        triangle().reweighted(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds INF")]
    fn weight_above_inf_panics() {
        CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, u64::MAX)]);
    }

    #[test]
    #[should_panic(expected = "exceeds INF")]
    fn reweighted_rejects_weight_above_inf() {
        triangle().reweighted(&[1, INF + 1, 3]);
    }

    #[test]
    fn inf_weight_is_legal() {
        let g = CsrGraph::from_edges(2, &[(0, 1, INF)]);
        assert_eq!(g.reweighted(&[INF]).weight(0), INF);
    }
}
