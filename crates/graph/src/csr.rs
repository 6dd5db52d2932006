//! Compressed-sparse-row storage for undirected weighted multigraphs.

use std::sync::Arc;

use crate::types::{Edge, EdgeId, VertexId, Weight, INF};
use crate::view::CsrView;

/// An immutable undirected weighted multigraph in CSR form.
///
/// Construction is done through [`crate::builder::GraphBuilder`] or
/// [`CsrGraph::from_edges`]; once built the graph never changes, which lets
/// every algorithm in the suite share it freely across threads (`&CsrGraph`
/// is `Send + Sync`).
///
/// Storage layout:
///
/// * `edges[e]` — the canonical record of edge `e` (endpoints + weight);
/// * `adj[offsets[v] .. offsets[v+1]]` — the incidence list of vertex `v`
///   as `(neighbor, edge-id)` pairs.
///
/// Every non-loop edge contributes one incidence entry to each endpoint.
/// A **self-loop contributes a single entry** to its vertex, so
/// [`CsrGraph::degree`] counts a self-loop once; the suite's degree-based
/// reductions only run on simple graphs where this distinction is moot, and
/// the multigraph consumers (minimum cycle basis) never look at degrees.
///
/// The offsets/adjacency arrays are the graph's **topology layer**: the
/// counting-sort construction never looks at a weight, so two graphs with
/// the same edge list shape share them bit for bit. They live behind
/// [`Arc`] so [`CsrGraph::reweighted`] can produce a new graph that
/// recomputes only the **weight layer** (edge records + per-incidence
/// weights) while sharing the topology allocation with the original.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    n: usize,
    edges: Vec<Edge>,
    offsets: Arc<Vec<u32>>,
    adj: Arc<Vec<(VertexId, EdgeId)>>,
    /// Per-incidence weights, parallel to `adj` — relaxation loops stream
    /// this alongside the adjacency instead of gathering `edges[e].w`.
    adj_weights: Vec<Weight>,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight exceeds [`INF`].
    pub fn from_edges(n: usize, list: &[(VertexId, VertexId, Weight)]) -> Self {
        let edges: Vec<Edge> = list.iter().map(|&(u, v, w)| Edge::new(u, v, w)).collect();
        Self::from_edge_records(n, edges)
    }

    /// Builds a graph from pre-assembled [`Edge`] records.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight exceeds [`INF`].
    /// A weight of exactly `INF` is legal: it is a saturated chain's weight
    /// and means "no edge". Anything above it would wrap the shortest-path
    /// relaxations' `d + w`.
    pub fn from_edge_records(n: usize, edges: Vec<Edge>) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 id space");
        let mut deg = vec![0u32; n + 1];
        for e in &edges {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge endpoint out of range"
            );
            assert!(e.w <= INF, "edge weight {} exceeds INF", e.w);
            deg[e.u as usize + 1] += 1;
            if !e.is_self_loop() {
                deg[e.v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg;
        let mut cursor = offsets.clone();
        let adj_len = *offsets.last().unwrap_or(&0) as usize;
        let mut adj = vec![(0u32, 0u32); adj_len];
        let mut adj_weights = vec![0 as Weight; adj_len];
        for (idx, e) in edges.iter().enumerate() {
            let id = idx as EdgeId;
            let cu = cursor[e.u as usize] as usize;
            adj[cu] = (e.v, id);
            adj_weights[cu] = e.w;
            cursor[e.u as usize] += 1;
            if !e.is_self_loop() {
                let cv = cursor[e.v as usize] as usize;
                adj[cv] = (e.u, id);
                adj_weights[cv] = e.w;
                cursor[e.v as usize] += 1;
            }
        }
        CsrGraph {
            n,
            edges,
            offsets: Arc::new(offsets),
            adj: Arc::new(adj),
            adj_weights,
        }
    }

    /// The same topology under new weights: `new_weights[e]` replaces the
    /// weight of edge `e` while endpoints, edge ids, adjacency order and the
    /// offsets array are untouched. The offsets/adjacency allocations are
    /// **shared** with `self` (no clone), and the result is bit-identical to
    /// [`CsrGraph::from_edge_records`] on the reweighted edge list — the
    /// counting sort never consults weights, so only the edge records and
    /// the per-incidence weight stream differ.
    ///
    /// # Panics
    /// Panics if `new_weights.len() != self.m()` or a weight exceeds
    /// [`INF`] (see [`CsrGraph::from_edge_records`]).
    pub fn reweighted(&self, new_weights: &[Weight]) -> CsrGraph {
        assert_eq!(
            new_weights.len(),
            self.m(),
            "one weight per edge is required"
        );
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .zip(new_weights)
            .map(|(e, &w)| {
                assert!(w <= INF, "edge weight {w} exceeds INF");
                Edge::new(e.u, e.v, w)
            })
            .collect();
        let adj_weights: Vec<Weight> = self
            .adj
            .iter()
            .map(|&(_, e)| new_weights[e as usize])
            .collect();
        CsrGraph {
            n: self.n,
            edges,
            offsets: Arc::clone(&self.offsets),
            adj: Arc::clone(&self.adj),
            adj_weights,
        }
    }

    /// True when `other` shares this graph's topology allocations (both
    /// came from the same [`CsrGraph::reweighted`] family). Pointer
    /// equality, O(1) — the customization tests use this to prove the
    /// weight swap did not clone the structure.
    pub fn shares_topology(&self, other: &CsrGraph) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets) && Arc::ptr_eq(&self.adj, &other.adj)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges and self-loops each count once).
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The full edge array.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The record of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e as usize].w
    }

    /// Incidence list of `v` as `(neighbor, edge-id)` pairs.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Incidence list of `v` together with the parallel per-incidence
    /// weight slice — the relaxation loops' streaming access path.
    #[inline]
    pub fn incidences(&self, v: VertexId) -> (&[(VertexId, EdgeId)], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.adj[lo..hi], &self.adj_weights[lo..hi])
    }

    /// A zero-copy [`CsrView`] of the whole graph — the borrowed currency
    /// every solver in the suite traverses.
    #[inline]
    pub fn view(&self) -> CsrView<'_> {
        CsrView::from_raw_unchecked(
            self.n,
            &self.offsets,
            &self.adj,
            &self.adj_weights,
            &self.edges,
        )
    }

    /// Incidence-list length of `v` (self-loops counted once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n as VertexId
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// True if the graph contains no parallel edges and no self-loops.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.m());
        for e in &self.edges {
            if e.is_self_loop() || !seen.insert(e.key()) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
