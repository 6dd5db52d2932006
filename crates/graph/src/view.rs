//! Zero-copy borrowed views over CSR storage.
//!
//! A [`CsrView`] is the read-only solve currency of the suite: a `Copy`
//! bundle of slices — offsets window, `(neighbor, edge-id)` adjacency,
//! per-incidence weights, and local edge records — over one span of a
//! [`CsrArena`](crate::arena::CsrArena)
//! ([`CsrArena::view`](crate::arena::CsrArena::view)). A whole
//! [`CsrGraph`] is the one span of its own arena ([`CsrGraph::view`]), so
//! a whole graph and a plan block have one construction and one set of
//! accessors: the bodies below, which [`CsrGraph`]'s accessors call.
//!
//! The offsets window stores *absolute* positions into the backing
//! adjacency arena; [`CsrView::neighbors`] subtracts the window base. For
//! a whole-graph view the base is zero and the arithmetic disappears.
//!
//! The per-incidence `weights` slice is parallel to `adj`:
//! `weights[i]` is the weight of the edge behind `adj[i]`. Traversals use
//! [`CsrView::incidences`] to stream both together instead of gathering
//! `edges[e].w` per relaxation — on graphs that outgrow cache this is the
//! difference between one sequential stream and a random 16-byte load per
//! edge.

use crate::csr::CsrGraph;
use crate::types::{Edge, EdgeId, VertexId, Weight};

/// A borrowed, immutable CSR graph: one span of a
/// [`CsrArena`](crate::arena::CsrArena), such as a whole [`CsrGraph`] or a
/// plan block.
///
/// `Copy` by design — pass it by value like the `&CsrGraph` it replaces.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    n: usize,
    /// Offsets window (`n + 1` entries); values are absolute positions in
    /// the backing adjacency arena — `base` rebases them onto `adj`.
    offsets: &'a [u32],
    /// `offsets[0]`, hoisted so `neighbors` pays no extra load.
    base: u32,
    /// Adjacency window as `(neighbor, edge-id)` pairs; edge ids are local
    /// to this view (indices into `edges`).
    adj: &'a [(VertexId, EdgeId)],
    /// Per-incidence weights, parallel to `adj`.
    weights: &'a [Weight],
    /// Local edge records.
    edges: &'a [Edge],
}

impl<'a> CsrView<'a> {
    /// Non-validating constructor for
    /// [`CsrArena::view`](crate::arena::CsrArena::view), whose windows are
    /// consistent by construction; skips the O(n)
    /// monotonicity sweep so taking a view costs nothing on hot paths.
    #[inline]
    pub(crate) fn from_raw_unchecked(
        n: usize,
        offsets: &'a [u32],
        adj: &'a [(VertexId, EdgeId)],
        weights: &'a [Weight],
        edges: &'a [Edge],
    ) -> Self {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(weights.len(), adj.len());
        CsrView {
            n,
            offsets,
            base: offsets[0],
            adj,
            weights,
            edges,
        }
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

    /// The local edge records.
    #[inline]
    pub fn edges(&self) -> &'a [Edge] {
        self.edges
    }

    /// The record of local edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Weight of local edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e as usize].w
    }

    /// Incidence list of `v` as `(neighbor, edge-id)` pairs.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [(VertexId, EdgeId)] {
        let lo = (self.offsets[v as usize] - self.base) as usize;
        let hi = (self.offsets[v as usize + 1] - self.base) as usize;
        &self.adj[lo..hi]
    }

    /// Incidence list of `v` together with the parallel per-incidence
    /// weight slice — the relaxation loops' streaming access path.
    #[inline]
    pub fn incidences(&self, v: VertexId) -> (&'a [(VertexId, EdgeId)], &'a [Weight]) {
        let lo = (self.offsets[v as usize] - self.base) as usize;
        let hi = (self.offsets[v as usize + 1] - self.base) as usize;
        (&self.adj[lo..hi], &self.weights[lo..hi])
    }

    /// The full per-incidence weight window, parallel to the adjacency
    /// window (every edge appears once per endpoint). One sequential pass
    /// over this slice is how the SSSP engine decides bucket-queue
    /// eligibility without touching the edge records.
    #[inline]
    pub fn incidence_weights(&self) -> &'a [Weight] {
        self.weights
    }

    /// Incidence-list length of `v` (self-loops counted once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'a {
        0..self.n as VertexId
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// True if the viewed graph contains no parallel edges or self-loops.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.m());
        for e in self.edges {
            if e.is_self_loop() || !seen.insert(e.key()) {
                return false;
            }
        }
        true
    }

    /// Copies the view into an owned [`CsrGraph`] — the escape hatch for
    /// algorithms that need owned storage (e.g. the full de Pina loop on a
    /// non-reduced block). Same local ids, same edge order, same adjacency
    /// order.
    pub fn materialize(&self) -> CsrGraph {
        CsrGraph::from_edge_records(self.n, self.edges.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(
            5,
            &[
                (0, 1, 3),
                (1, 2, 5),
                (2, 0, 7),
                (2, 2, 9),
                (3, 4, 1),
                (3, 4, 2),
            ],
        )
    }

    #[test]
    fn whole_graph_view_mirrors_graph() {
        let g = sample();
        let v = g.view();
        assert_eq!(v.n(), g.n());
        assert_eq!(v.m(), g.m());
        assert_eq!(v.edges(), g.edges());
        assert_eq!(v.total_weight(), g.total_weight());
        assert_eq!(v.is_simple(), g.is_simple());
        for u in 0..g.n() as u32 {
            assert_eq!(v.neighbors(u), g.neighbors(u));
            assert_eq!(v.degree(u), g.degree(u));
            let (adj, wts) = v.incidences(u);
            assert_eq!(adj, g.neighbors(u));
            for (&(_, e), &w) in adj.iter().zip(wts) {
                assert_eq!(w, g.weight(e));
            }
        }
    }

    #[test]
    fn materialize_round_trips() {
        let g = sample();
        let m = g.view().materialize();
        assert_eq!(m.n(), g.n());
        assert_eq!(m.edges(), g.edges());
        for u in 0..g.n() as u32 {
            assert_eq!(m.neighbors(u), g.neighbors(u));
        }
    }
}
