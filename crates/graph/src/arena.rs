//! Concatenated CSR storage for many small graphs: one allocation family,
//! zero-copy per-graph views.
//!
//! One standalone [`CsrGraph`](crate::csr::CsrGraph) per biconnected
//! block would cost four heap allocations and an allocator-chosen address
//! per block, so a sweep over the blocks would hop around the heap. A
//! [`CsrArena`] instead appends every block into four shared arrays in
//! block order (the plan's locality order): pushing a graph returns a
//! [`CsrSpan`], and [`CsrArena::view`] reopens it as a zero-copy
//! [`CsrView`] window. The decomposition plan stores all of its blocks
//! this way.
//!
//! [`CsrArena::push`] runs the exact construction
//! [`CsrGraph::from_edge_records`](crate::csr::CsrGraph::from_edge_records) runs — counting sort of the edge list
//! into per-vertex incidence lists, self-loops contributing a single entry
//! — so an arena window and a standalone per-block graph are bit-identical
//! term by term (`tests` below and the layout differential suite hold both
//! to that; the testkit's `plan_invariants` checks every plan block
//! against a standalone `edge_subgraph` extraction).

use std::sync::Arc;

use crate::types::{Edge, EdgeId, VertexId, Weight};
use crate::view::CsrView;

/// One pushed graph's windows inside a [`CsrArena`] (plain indices, `Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrSpan {
    /// Vertex count of the pushed graph.
    pub n: u32,
    /// Edge count of the pushed graph.
    pub m: u32,
    /// Start of the offsets window (`n + 1` entries).
    pub off: u32,
    /// Start of the adjacency / weights windows.
    pub adj: u32,
    /// Length of the adjacency / weights windows.
    pub adj_len: u32,
    /// Start of the edge-record window (`m` entries).
    pub edge: u32,
}

/// Append-only concatenated CSR storage; see the [module docs](self).
///
/// The offsets/adjacency arrays are the arena's weight-independent
/// **topology layer** and live behind [`Arc`]: during construction the
/// arena is the sole owner so [`Arc::make_mut`] appends in place without
/// cloning, and [`CsrArena::reweighted`] later produces a new arena that
/// shares them while recomputing only the weight/edge arrays.
#[derive(Clone, Debug, Default)]
pub struct CsrArena {
    /// Concatenated per-graph offset windows; values are absolute
    /// positions in `adj`.
    offsets: Arc<Vec<u32>>,
    adj: Arc<Vec<(VertexId, EdgeId)>>,
    weights: Vec<Weight>,
    edges: Vec<Edge>,
}

impl CsrArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the backing arrays (`n_total` vertices + one offsets
    /// entry per graph, `adj_total` incidence entries, `m_total` edges).
    pub fn with_capacity(n_total: usize, adj_total: usize, m_total: usize) -> Self {
        CsrArena {
            offsets: Arc::new(Vec::with_capacity(n_total)),
            adj: Arc::new(Vec::with_capacity(adj_total)),
            weights: Vec::with_capacity(adj_total),
            edges: Vec::with_capacity(m_total),
        }
    }

    /// Appends a graph with `n` vertices and the given local edge list;
    /// returns its windows. Mirrors [`CsrGraph::from_edge_records`](crate::csr::CsrGraph::from_edge_records)
    /// exactly: edges keep list order (local edge id = list index) and
    /// each vertex's incidence list ends up in ascending edge-id order.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn push(&mut self, n: usize, list: &[(VertexId, VertexId, Weight)]) -> CsrSpan {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 id space");
        // During construction the arena is the sole owner of its topology
        // arrays, so `make_mut` appends in place (no clone); once spans
        // have been handed out the arena is only read or `reweighted`.
        let offsets = Arc::make_mut(&mut self.offsets);
        let adj = Arc::make_mut(&mut self.adj);
        let off = offsets.len();
        let adj_base = adj.len();
        let edge_base = self.edges.len();

        // Degree counts into the fresh offsets window.
        offsets.resize(off + n + 1, 0);
        let win = &mut offsets[off..];
        for &(u, v, _) in list {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            win[u as usize + 1] += 1;
            if u != v {
                win[v as usize + 1] += 1;
            }
        }
        // Prefix sum, rebased onto the shared adjacency array.
        win[0] = adj_base as u32;
        for i in 0..n {
            win[i + 1] += win[i];
        }
        let adj_len = (win[n] as usize) - adj_base;

        // Counting-sort fill, same traversal as `from_edge_records`.
        adj.resize(adj_base + adj_len, (0, 0));
        self.weights.resize(adj_base + adj_len, 0);
        let mut cursor: Vec<u32> = offsets[off..off + n + 1].to_vec();
        for (idx, &(u, v, w)) in list.iter().enumerate() {
            let id = idx as EdgeId;
            self.edges.push(Edge::new(u, v, w));
            let cu = cursor[u as usize] as usize;
            adj[cu] = (v, id);
            self.weights[cu] = w;
            cursor[u as usize] += 1;
            if u != v {
                let cv = cursor[v as usize] as usize;
                adj[cv] = (u, id);
                self.weights[cv] = w;
                cursor[v as usize] += 1;
            }
        }

        CsrSpan {
            n: n as u32,
            m: list.len() as u32,
            off: off as u32,
            adj: adj_base as u32,
            adj_len: adj_len as u32,
            edge: edge_base as u32,
        }
    }

    /// Reopens a span as a zero-copy [`CsrView`].
    #[inline]
    pub fn view(&self, s: &CsrSpan) -> CsrView<'_> {
        let off = s.off as usize;
        let adj = s.adj as usize;
        let adj_hi = adj + s.adj_len as usize;
        let edge = s.edge as usize;
        CsrView::from_raw_unchecked(
            s.n as usize,
            &self.offsets[off..off + s.n as usize + 1],
            &self.adj[adj..adj_hi],
            &self.weights[adj..adj_hi],
            &self.edges[edge..edge + s.m as usize],
        )
    }

    /// The same concatenated topology under new weights. `new_weights` is
    /// indexed by **arena edge record** (length [`CsrArena::edges_len`]);
    /// the caller maps its own weight space onto arena records via the
    /// spans it kept from [`CsrArena::push`] (global record of span `s`'s
    /// local edge `i` is `s.edge + i`). The offsets/adjacency allocations
    /// are shared with `self`; only the edge records and the per-incidence
    /// weight stream are rebuilt, and each rebuilt window is bit-identical
    /// to a fresh [`CsrArena::push`] of the reweighted list.
    ///
    /// # Panics
    /// Panics if `new_weights.len() != self.edges_len()` or the spans do
    /// not belong to this arena.
    pub fn reweighted(&self, spans: &[CsrSpan], new_weights: &[Weight]) -> CsrArena {
        assert_eq!(
            new_weights.len(),
            self.edges.len(),
            "one weight per arena edge record is required"
        );
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .zip(new_weights)
            .map(|(e, &w)| Edge::new(e.u, e.v, w))
            .collect();
        // The adjacency stores span-local edge ids, so the parallel weight
        // stream needs each span's edge base to find the global record.
        let mut weights = vec![0 as Weight; self.adj.len()];
        for s in spans {
            let lo = s.adj as usize;
            let hi = lo + s.adj_len as usize;
            assert!(
                hi <= self.adj.len() && (s.edge + s.m) as usize <= self.edges.len(),
                "span does not belong to this arena"
            );
            for (slot, &(_, le)) in weights[lo..hi].iter_mut().zip(&self.adj[lo..hi]) {
                *slot = new_weights[(s.edge + le) as usize];
            }
        }
        CsrArena {
            offsets: Arc::clone(&self.offsets),
            adj: Arc::clone(&self.adj),
            weights,
            edges,
        }
    }

    /// True when `other` shares this arena's topology allocations (both
    /// came from the same [`CsrArena::reweighted`] family). Pointer
    /// equality, O(1).
    pub fn shares_topology(&self, other: &CsrArena) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets) && Arc::ptr_eq(&self.adj, &other.adj)
    }

    /// Total offsets entries (tiling checks).
    pub fn offsets_len(&self) -> usize {
        self.offsets.len()
    }

    /// Total adjacency entries (tiling checks).
    pub fn adj_len(&self) -> usize {
        self.adj.len()
    }

    /// Total edge records (tiling checks).
    pub fn edges_len(&self) -> usize {
        self.edges.len()
    }

    /// Bytes of backing storage currently in use (not capacity).
    pub fn used_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.adj.len() * std::mem::size_of::<(VertexId, EdgeId)>()
            + self.weights.len() * std::mem::size_of::<Weight>()
            + self.edges.len() * std::mem::size_of::<Edge>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn assert_view_matches_graph(v: CsrView<'_>, g: &CsrGraph) {
        assert_eq!(v.n(), g.n());
        assert_eq!(v.m(), g.m());
        assert_eq!(v.edges(), g.edges());
        for u in 0..g.n() as u32 {
            assert_eq!(v.neighbors(u), g.neighbors(u), "vertex {u}");
            let (adj, wts) = v.incidences(u);
            assert_eq!(adj, g.neighbors(u));
            for (&(_, e), &w) in adj.iter().zip(wts) {
                assert_eq!(w, g.weight(e));
            }
        }
    }

    #[test]
    fn pushed_graphs_match_standalone_construction() {
        type EdgeList = (usize, Vec<(u32, u32, u64)>);
        let lists: Vec<EdgeList> = vec![
            (3, vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)]),
            (2, vec![(0, 0, 5), (0, 1, 1), (0, 1, 9)]), // loop + parallel pair
            (4, vec![(3, 0, 2), (1, 3, 4)]),            // isolated vertex 2
            (1, vec![]),
            (0, vec![]),
        ];
        let mut arena = CsrArena::new();
        let spans: Vec<CsrSpan> = lists.iter().map(|(n, l)| arena.push(*n, l)).collect();
        for ((n, l), s) in lists.iter().zip(&spans) {
            let g = CsrGraph::from_edges(*n, l);
            assert_view_matches_graph(arena.view(s), &g);
        }
        // The spans tile the arena exactly.
        let mut off = 0;
        let mut adj = 0;
        let mut edge = 0;
        for s in &spans {
            assert_eq!((s.off, s.adj, s.edge), (off, adj, edge));
            off += s.n + 1;
            adj += s.adj_len;
            edge += s.m;
        }
        assert_eq!(off as usize, arena.offsets_len());
        assert_eq!(adj as usize, arena.adj_len());
        assert_eq!(edge as usize, arena.edges_len());
    }

    #[test]
    fn reweighted_matches_fresh_push_and_shares_topology() {
        type EdgeList = (usize, Vec<(u32, u32, u64)>);
        let lists: Vec<EdgeList> = vec![
            (3, vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)]),
            (2, vec![(0, 0, 5), (0, 1, 1), (0, 1, 9)]),
            (4, vec![(3, 0, 2), (1, 3, 4)]),
        ];
        let mut arena = CsrArena::new();
        let spans: Vec<CsrSpan> = lists.iter().map(|(n, l)| arena.push(*n, l)).collect();

        // Double every weight, indexed by arena edge record.
        let new_w: Vec<u64> = lists
            .iter()
            .flat_map(|(_, l)| l.iter().map(|&(_, _, w)| w * 2))
            .collect();
        let re = arena.reweighted(&spans, &new_w);
        assert!(arena.shares_topology(&re));

        // The reweighted arena is bit-identical to pushing the doubled
        // lists into a fresh arena.
        let mut fresh = CsrArena::new();
        for (n, l) in &lists {
            let doubled: Vec<(u32, u32, u64)> = l.iter().map(|&(u, v, w)| (u, v, w * 2)).collect();
            fresh.push(*n, &doubled);
        }
        assert!(!fresh.shares_topology(&re));
        for s in &spans {
            let a = re.view(s);
            let b = fresh.view(s);
            assert_eq!(a.edges(), b.edges());
            for u in 0..s.n {
                assert_eq!(a.incidences(u), b.incidences(u));
            }
        }
        // Original untouched.
        assert_eq!(arena.view(&spans[0]).weight(0), 1);
    }

    #[test]
    fn used_bytes_counts_all_four_arrays() {
        let mut arena = CsrArena::new();
        arena.push(2, &[(0, 1, 7)]);
        // 3 offsets * 4 + 2 adj * 8 + 2 weights * 8 + 1 edge * 16
        assert_eq!(arena.used_bytes(), 12 + 16 + 16 + 16);
    }
}
