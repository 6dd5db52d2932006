//! Concatenated CSR storage for many graphs: one allocation family,
//! zero-copy per-graph views.
//!
//! A [`CsrArena`] appends graphs into four shared arrays in push order:
//! pushing a graph returns a [`CsrSpan`], and [`CsrArena::view`] reopens
//! it as a zero-copy [`CsrView`] window. The decomposition plan stores all
//! of its blocks in one arena (in the plan's locality order), so a sweep
//! over the blocks streams one allocation instead of hopping between
//! per-block ones; a whole [`CsrGraph`](crate::csr::CsrGraph) is an arena
//! holding one span.
//!
//! There is one construction: a counting sort of a span's edge records
//! into per-vertex incidence lists, edges in list order (local edge id =
//! list index), each vertex's incidences in ascending edge-id order, and a
//! self-loop contributing a single entry. [`CsrArena::push`] and
//! [`CsrGraph::from_edge_records`](crate::csr::CsrGraph::from_edge_records)
//! both run it, and it is where the endpoint range and the `w <= INF`
//! weight contract are checked.

use std::sync::Arc;

use crate::types::{Edge, EdgeId, VertexId, Weight, INF};
use crate::view::CsrView;

/// The weight contract: a weight of exactly [`INF`] is legal (it is a
/// saturated chain's weight and means "no edge"); anything above it would
/// wrap the shortest-path relaxations' `d + w`.
#[inline]
fn check_weight(w: Weight) -> Weight {
    assert!(w <= INF, "edge weight {w} exceeds INF");
    w
}

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
    /// returns its windows (the [module docs](self) give the layout).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight exceeds [`INF`].
    pub fn push(&mut self, n: usize, list: &[(VertexId, VertexId, Weight)]) -> CsrSpan {
        let edge_base = self.edges.len();
        self.edges
            .extend(list.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        self.index(n, edge_base)
    }

    /// A one-span arena holding `edges` (moved in, not copied) as a graph
    /// with `n` vertices: the storage of a whole
    /// [`CsrGraph`](crate::csr::CsrGraph).
    ///
    /// # Panics
    /// As [`CsrArena::push`].
    pub(crate) fn from_records(n: usize, edges: Vec<Edge>) -> (CsrArena, CsrSpan) {
        let mut arena = CsrArena {
            edges,
            ..CsrArena::default()
        };
        let span = arena.index(n, 0);
        (arena, span)
    }

    /// The construction: counting-sorts the edge records from `edge_base`
    /// on into a new span with `n` vertices.
    fn index(&mut self, n: usize, edge_base: usize) -> CsrSpan {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 id space");
        // During construction the arena is the sole owner of its topology
        // arrays, so `make_mut` appends in place (no clone); once spans
        // have been handed out the arena is only read or `reweighted`.
        let offsets = Arc::make_mut(&mut self.offsets);
        let adj = Arc::make_mut(&mut self.adj);
        let off = offsets.len();
        let adj_base = adj.len();
        let records = &self.edges[edge_base..];

        // Degree counts into the fresh offsets window.
        offsets.resize(off + n + 1, 0);
        let win = &mut offsets[off..];
        for e in records {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge endpoint out of range"
            );
            check_weight(e.w);
            win[e.u as usize + 1] += 1;
            if !e.is_self_loop() {
                win[e.v as usize + 1] += 1;
            }
        }
        // Prefix sum, rebased onto the shared adjacency array.
        win[0] = adj_base as u32;
        for i in 0..n {
            win[i + 1] += win[i];
        }
        let adj_len = (win[n] as usize) - adj_base;

        // Counting-sort fill.
        adj.resize(adj_base + adj_len, (0, 0));
        self.weights.resize(adj_base + adj_len, 0);
        let mut cursor: Vec<u32> = offsets[off..off + n + 1].to_vec();
        for (idx, e) in records.iter().enumerate() {
            let id = idx as EdgeId;
            let cu = cursor[e.u as usize] as usize;
            adj[cu] = (e.v, id);
            self.weights[cu] = e.w;
            cursor[e.u as usize] += 1;
            if !e.is_self_loop() {
                let cv = cursor[e.v as usize] as usize;
                adj[cv] = (e.u, id);
                self.weights[cv] = e.w;
                cursor[e.v as usize] += 1;
            }
        }

        CsrSpan {
            n: n as u32,
            m: records.len() as u32,
            off: off as u32,
            adj: adj_base as u32,
            adj_len: adj_len as u32,
            edge: edge_base as u32,
        }
    }

    /// Renumbers the vertices of every span in place: vertex `v` of a
    /// span becomes its entry of `new_id`, which holds each span's new ids
    /// back to back in span order. Edge ids, edge order and each vertex's
    /// incidence order are kept, so every window equals a fresh
    /// [`CsrArena::push`] of its renamed edge list. One set of staging
    /// buffers serves every span.
    ///
    /// # Panics
    /// Panics unless each span's ids are a permutation of `0..s.n`.
    pub fn relabel(&mut self, spans: &[CsrSpan], new_id: &[VertexId]) {
        let total: usize = spans.iter().map(|s| s.n as usize).sum();
        assert_eq!(new_id.len(), total, "one new id per vertex");
        let offsets = Arc::make_mut(&mut self.offsets);
        let adj = Arc::make_mut(&mut self.adj);
        let (mut old_win, mut old_adj, mut old_w) = (Vec::new(), Vec::new(), Vec::new());
        let mut rest = new_id;
        for s in spans {
            let n = s.n as usize;
            let (new_id, tail) = rest.split_at(n);
            rest = tail;
            let win = &mut offsets[s.off as usize..][..n + 1];
            let (lo, hi) = (s.adj as usize, (s.adj + s.adj_len) as usize);
            old_win.clear();
            old_win.extend_from_slice(win);
            old_adj.clear();
            old_adj.extend_from_slice(&adj[lo..hi]);
            old_w.clear();
            old_w.extend_from_slice(&self.weights[lo..hi]);
            // New degrees, then their prefix sums, in new id order; a
            // repeated id leaves some slot unset.
            win[1..].fill(u32::MAX);
            for (v, &id) in new_id.iter().enumerate() {
                assert!(
                    (id as usize) < n && win[id as usize + 1] == u32::MAX,
                    "new ids must be a permutation"
                );
                win[id as usize + 1] = old_win[v + 1] - old_win[v];
            }
            for i in 0..n {
                win[i + 1] += win[i];
            }
            // Vertex v's incidence list moves, renamed, to its new slot.
            for (v, &id) in new_id.iter().enumerate() {
                let (a, b) = (old_win[v] as usize - lo, old_win[v + 1] as usize - lo);
                let at = win[id as usize] as usize;
                for k in a..b {
                    let (y, e) = old_adj[k];
                    adj[at + k - a] = (new_id[y as usize], e);
                    self.weights[at + k - a] = old_w[k];
                }
            }
            for e in &mut self.edges[s.edge as usize..][..s.m as usize] {
                (e.u, e.v) = (new_id[e.u as usize], new_id[e.v as usize]);
            }
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
    /// Panics if `new_weights.len() != self.edges_len()`, a weight exceeds
    /// [`INF`], or the spans do not belong to this arena.
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
            .map(|(e, &w)| Edge::new(e.u, e.v, check_weight(w)))
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
    fn relabel_matches_fresh_push_of_renamed_list() {
        let first = vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)];
        let list = vec![(0, 0, 5), (0, 1, 1), (3, 1, 9), (2, 0, 4), (1, 2, 6)];
        let new_id = [2, 0, 3, 1];
        let mut arena = CsrArena::new();
        let before = arena.push(3, &first);
        let s = arena.push(4, &list);
        let first_id = [1, 2, 0];
        arena.relabel(&[before, s], &[&first_id[..], &new_id].concat());
        let renamed: Vec<(u32, u32, u64)> = list
            .iter()
            .map(|&(u, v, w)| (new_id[u as usize], new_id[v as usize], w))
            .collect();
        assert_view_matches_graph(arena.view(&s), &CsrGraph::from_edges(4, &renamed));
        let first: Vec<(u32, u32, u64)> = first
            .iter()
            .map(|&(u, v, w)| (first_id[u as usize], first_id[v as usize], w))
            .collect();
        assert_view_matches_graph(arena.view(&before), &CsrGraph::from_edges(3, &first));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_a_non_permutation() {
        let mut arena = CsrArena::new();
        let s = arena.push(2, &[(0, 1, 1)]);
        arena.relabel(&[s], &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds INF")]
    fn push_rejects_weight_above_inf() {
        let mut arena = CsrArena::new();
        arena.push(2, &[(0, 1, INF)]);
        arena.push(3, &[(0, 1, 1), (1, 2, INF + 1)]);
    }

    #[test]
    #[should_panic(expected = "exceeds INF")]
    fn reweighted_rejects_weight_above_inf() {
        let mut arena = CsrArena::new();
        let s = arena.push(3, &[(0, 1, 1), (1, 2, 2)]);
        let _ = arena.reweighted(&[s], &[INF, INF]);
        let _ = arena.reweighted(&[s], &[1, INF + 1]);
    }

    #[test]
    fn used_bytes_counts_all_four_arrays() {
        let mut arena = CsrArena::new();
        arena.push(2, &[(0, 1, 7)]);
        // 3 offsets * 4 + 2 adj * 8 + 2 weights * 8 + 1 edge * 16
        assert_eq!(arena.used_bytes(), 12 + 16 + 16 + 16);
    }
}
