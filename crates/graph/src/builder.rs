//! Incremental construction of [`CsrGraph`]s.

use crate::csr::CsrGraph;
use crate::types::{Edge, EdgeId, VertexId, Weight};

/// A mutable edge-list accumulator that freezes into a [`CsrGraph`].
///
/// ```
/// use ear_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 3);
/// b.add_edge(1, 2, 1);
/// let extra = b.add_vertex();
/// b.add_edge(2, extra, 2);
/// let g = b.build();
/// assert_eq!(g.n(), 5);
/// assert_eq!(g.m(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Starts a builder with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Starts a builder with `n` vertices and room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = self.n as VertexId;
        self.n += 1;
        id
    }

    /// Ensures the vertex id space covers `0..n`.
    pub fn grow_to(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds an undirected edge and returns its id. Parallel edges and
    /// self-loops are allowed and kept as distinct edges.
    ///
    /// # Panics
    /// Panics if an endpoint is not a known vertex. A weight above
    /// [`INF`](crate::types::INF) panics at [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> EdgeId {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range: ({u},{v}) with n={}",
            self.n
        );
        let id = self.edges.len() as EdgeId;
        self.edges.push(Edge::new(u, v, w));
        id
    }

    /// Current vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current edge count.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Freezes into an immutable CSR graph.
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_edge_records(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::with_capacity(3, 2);
        let e0 = b.add_edge(0, 1, 7);
        let e1 = b.add_edge(1, 2, 9);
        assert_eq!((e0, e1), (0, 1));
        let g = b.build();
        assert_eq!(g.n(), 3);
        assert_eq!(g.weight(0), 7);
        assert_eq!(g.weight(1), 9);
    }

    #[test]
    fn add_vertex_extends_id_space() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_vertex();
        assert_eq!(v, 1);
        b.add_edge(0, v, 1);
        assert_eq!(b.build().n(), 2);
    }

    #[test]
    fn grow_to_never_shrinks() {
        let mut b = GraphBuilder::new(5);
        b.grow_to(3);
        assert_eq!(b.n(), 5);
        b.grow_to(8);
        assert_eq!(b.n(), 8);
    }

    #[test]
    #[should_panic]
    fn edge_to_unknown_vertex_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }
}
