//! Single-source shortest paths (Dijkstra) with operation instrumentation.
//!
//! The paper runs one Dijkstra instance per source vertex of the reduced
//! graph, each instance on its own thread/GPU workunit (Section 2.1.2).
//! The free functions here ([`dijkstra`], [`dijkstra_with_stats`],
//! [`dijkstra_tree`]) borrow a pooled
//! [`SsspEngine`](crate::engine::SsspEngine), whose queues are reused
//! across calls, and return what its run writes: a distance row, or an
//! [`SsspTree`].

use crate::csr::CsrGraph;
use crate::engine::with_engine;
use crate::types::{EdgeId, VertexId, Weight, INF};

/// Operation counters for one SSSP run. These feed the heterogeneous cost
/// model: `edges_relaxed` is the unit the paper's MTEPS metric counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DijkstraStats {
    /// Settled heap pops (at most one per vertex).
    pub settled: u64,
    /// Edge relaxations attempted.
    pub edges_relaxed: u64,
    /// Strictly-improving relaxations: one queue push each.
    pub heap_pushes: u64,
}

impl DijkstraStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &DijkstraStats) {
        self.settled += other.settled;
        self.edges_relaxed += other.edges_relaxed;
        self.heap_pushes += other.heap_pushes;
    }
}

/// A shortest-path tree rooted at [`SsspTree::source`].
///
/// `parent_vertex[v]` / `parent_edge[v]` describe the last hop of the chosen
/// shortest path to `v`; the source (and unreachable vertices) have
/// `u32::MAX` sentinels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsspTree {
    /// Root of the tree.
    pub source: VertexId,
    /// Distance from the source to every vertex (`INF` when unreachable).
    pub dist: Vec<Weight>,
    /// Predecessor vertex on the shortest path, `u32::MAX` at the root /
    /// unreachable vertices.
    pub parent_vertex: Vec<VertexId>,
    /// Edge id of the last hop, `u32::MAX` at the root / unreachable.
    pub parent_edge: Vec<EdgeId>,
    /// Hop depth of every vertex (0 at the root and at unreachable
    /// vertices), recorded during the run so [`depth`](Self::depth) is O(1).
    pub depths: Vec<u32>,
    /// Vertices in the order they were settled: non-decreasing distance,
    /// parents before children. Unreachable vertices are absent.
    pub settle_order: Vec<VertexId>,
    /// Instrumentation for the run that built this tree.
    pub stats: DijkstraStats,
}

impl SsspTree {
    /// True if `v` is reachable from the source.
    pub fn reachable(&self, v: VertexId) -> bool {
        self.dist[v as usize] < INF
    }

    /// Walks the tree path from `v` back to the source, returning the edge
    /// ids in leaf-to-root order. Returns `None` if `v` is unreachable.
    pub fn path_edges_to_root(&self, v: VertexId) -> Option<Vec<EdgeId>> {
        if !self.reachable(v) {
            return None;
        }
        let mut out = Vec::with_capacity(self.depths[v as usize] as usize);
        let mut cur = v;
        while cur != self.source {
            let pe = self.parent_edge[cur as usize];
            debug_assert_ne!(pe, u32::MAX);
            out.push(pe);
            cur = self.parent_vertex[cur as usize];
        }
        Some(out)
    }

    /// Depth (hop count) of `v` in the tree; `None` if unreachable. O(1):
    /// depths are recorded while the tree is built.
    pub fn depth(&self, v: VertexId) -> Option<u32> {
        if !self.reachable(v) {
            return None;
        }
        Some(self.depths[v as usize])
    }

    /// Vertices in order of non-decreasing distance (root first); ties are
    /// broken by vertex id so the order is deterministic. Unreachable
    /// vertices are omitted. This is the level-order style traversal the
    /// label-computation pass of the MCB algorithm needs (parents always
    /// precede children).
    ///
    /// Built from the recorded settle order — already non-decreasing in
    /// distance — so only equal-distance runs need sorting, not the whole
    /// vertex set.
    pub fn top_down_order(&self) -> Vec<VertexId> {
        let mut order = self.settle_order.clone();
        let mut i = 0;
        while i < order.len() {
            let d = self.dist[order[i] as usize];
            let mut j = i + 1;
            while j < order.len() && self.dist[order[j] as usize] == d {
                j += 1;
            }
            order[i..j].sort_unstable();
            i = j;
        }
        order
    }
}

/// Plain Dijkstra: distances only. Borrows a pooled engine.
pub fn dijkstra(g: &CsrGraph, source: VertexId) -> Vec<Weight> {
    dijkstra_with_stats(g, source).0
}

/// Dijkstra with distances plus counters, avoiding the tree bookkeeping.
/// Borrows a pooled engine.
pub fn dijkstra_with_stats(g: &CsrGraph, source: VertexId) -> (Vec<Weight>, DijkstraStats) {
    let mut dist = vec![INF; g.n()];
    let stats = with_engine(|e| e.run(g.view(), source, &mut dist));
    (dist, stats)
}

/// Dijkstra producing the full shortest-path tree. Borrows a pooled engine.
///
/// Tie-breaking is deterministic: among equal-distance relaxations the first
/// one found with the smaller `(distance, vertex, edge)` ordering wins, so
/// two runs on the same graph always produce the same tree. Deterministic
/// trees keep the Mehlhorn–Michail candidate set stable across the
/// sequential / multicore / GPU execution modes.
pub fn dijkstra_tree(g: &CsrGraph, source: VertexId) -> SsspTree {
    with_engine(|e| e.run_tree(g.view(), source))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn line_with_shortcut() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 5)])
    }

    #[test]
    fn picks_shorter_multi_hop_path() {
        let d = dijkstra(&line_with_shortcut(), 0);
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
    }

    #[test]
    fn parallel_edges_use_cheapest() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 9), (0, 1, 3)]);
        assert_eq!(dijkstra(&g, 0)[1], 3);
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = CsrGraph::from_edges(2, &[(0, 0, 1), (0, 1, 4)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 4]);
    }

    #[test]
    fn tree_paths_reconstruct_distances() {
        let g = line_with_shortcut();
        let t = dijkstra_tree(&g, 0);
        let p2 = t.path_edges_to_root(2).unwrap();
        let w: Weight = p2.iter().map(|&e| g.weight(e)).sum();
        assert_eq!(w, t.dist[2]);
        assert_eq!(t.depth(2), Some(2));
        assert_eq!(t.depth(0), Some(0));
    }

    #[test]
    fn tree_is_deterministic_under_ties() {
        // Two equal-weight routes 0->1->3 and 0->2->3.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let a = dijkstra_tree(&g, 0);
        let b = dijkstra_tree(&g, 0);
        assert_eq!(a.parent_vertex, b.parent_vertex);
        assert_eq!(a.parent_edge, b.parent_edge);
    }

    #[test]
    fn stats_count_relaxations() {
        let g = line_with_shortcut();
        let (_, s) = dijkstra_with_stats(&g, 0);
        assert_eq!(s.settled, 3);
        assert_eq!(s.edges_relaxed, 6); // every incidence scanned once
    }

    #[test]
    fn top_down_order_puts_parents_first() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 2), (1, 2, 2), (0, 3, 1), (3, 4, 10)]);
        let t = dijkstra_tree(&g, 0);
        let order = t.top_down_order();
        let pos = |v: VertexId| order.iter().position(|&x| x == v).unwrap();
        for v in 0..5u32 {
            let p = t.parent_vertex[v as usize];
            if p != u32::MAX {
                assert!(pos(p) < pos(v), "parent {p} should precede {v}");
            }
        }
    }

    #[test]
    fn top_down_order_matches_full_sort() {
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (1, 3, 1),
                (2, 4, 1),
                (3, 5, 3),
                (4, 6, 3),
            ],
        );
        let t = dijkstra_tree(&g, 0);
        let mut expected: Vec<VertexId> = (0..t.dist.len() as u32)
            .filter(|&v| t.reachable(v))
            .collect();
        expected.sort_unstable_by_key(|&v| (t.dist[v as usize], v));
        assert_eq!(t.top_down_order(), expected);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let t = dijkstra_tree(&g, 0);
        assert_eq!(t.dist, vec![0]);
        assert_eq!(t.path_edges_to_root(0), Some(vec![]));
        assert_eq!(t.settle_order, vec![0]);
    }
}
