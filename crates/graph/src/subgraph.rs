//! Subgraph extraction with bidirectional id maps.
//!
//! The biconnected-component pipeline slices the input graph into per-BCC
//! subgraphs that are processed independently (and in parallel); results are
//! then translated back through a [`SubgraphMap`].

use crate::arena::{CsrArena, CsrSpan};
use crate::csr::CsrGraph;
use crate::types::{EdgeId, VertexId, Weight};

/// Id translation between a subgraph and its parent graph.
#[derive(Clone, Debug)]
pub struct SubgraphMap {
    /// `local -> parent` vertex ids.
    pub to_parent_vertex: Vec<VertexId>,
    /// `local -> parent` edge ids.
    pub to_parent_edge: Vec<EdgeId>,
    /// `parent -> local` vertex ids (`u32::MAX` when absent). Kept as a dense
    /// array: BCC extraction touches every parent vertex anyway, and dense
    /// lookups are what the hot post-processing loops want.
    pub to_local_vertex: Vec<VertexId>,
}

impl SubgraphMap {
    /// Local id of a parent vertex, if present.
    #[inline]
    pub fn local(&self, parent: VertexId) -> Option<VertexId> {
        let l = self.to_local_vertex[parent as usize];
        (l != u32::MAX).then_some(l)
    }

    /// Parent id of a local vertex.
    #[inline]
    pub fn parent(&self, local: VertexId) -> VertexId {
        self.to_parent_vertex[local as usize]
    }
}

/// Id translation for a subgraph that does **not** carry the dense
/// `parent -> local` array: just the two `local -> parent` tables, both
/// sized by the subgraph.
///
/// Produced by [`edge_subgraph_into_arena`], which keeps the dense lookup in
/// a caller-owned [`SubgraphScratch`] so repeated extractions over the same
/// parent stay O(subgraph) each. `to_parent_edge` is the edge-id vector the
/// caller passed in, taken by value — local edge `i` is parent edge
/// `to_parent_edge[i]`.
#[derive(Clone, Debug, Default)]
pub struct CompactSubgraphMap {
    /// `local -> parent` vertex ids.
    pub to_parent_vertex: Vec<VertexId>,
    /// `local -> parent` edge ids (ownership of the caller's id list).
    pub to_parent_edge: Vec<EdgeId>,
}

impl CompactSubgraphMap {
    /// Parent id of a local vertex.
    #[inline]
    pub fn parent(&self, local: VertexId) -> VertexId {
        self.to_parent_vertex[local as usize]
    }
}

/// Reusable workspace for [`edge_subgraph_into_arena`].
///
/// Holds the parent-sized dense `parent -> local` array between calls. The
/// array is allocated (and `u32::MAX`-filled) once on first use and then
/// *reset sparsely* after each extraction by walking only the vertices the
/// extraction touched — so slicing a graph into all of its biconnected
/// components costs O(n + m) total instead of O(n · #components).
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    /// Dense `parent -> local` map; `u32::MAX` everywhere between calls.
    to_local: Vec<u32>,
    /// Edge-list staging buffer for [`CsrGraph::from_edges`].
    list: Vec<(VertexId, VertexId, Weight)>,
}

impl SubgraphScratch {
    /// Creates an empty scratch; arrays are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch-reusing, edge-id-owning core of [`edge_subgraph`].
///
/// Takes ownership of `edge_ids` (they become the map's `to_parent_edge`
/// verbatim — no copy) and reuses `scratch` across calls, so extracting
/// every block of a decomposition is O(block) per block after the first
/// call sizes the scratch.
fn edge_subgraph_reusing(
    g: &CsrGraph,
    edge_ids: Vec<EdgeId>,
    scratch: &mut SubgraphScratch,
) -> (CsrGraph, CompactSubgraphMap) {
    let mut to_parent_vertex: Vec<VertexId> = Vec::new();
    intern_edge_list(g, &edge_ids, scratch, &mut to_parent_vertex);
    let sub = CsrGraph::from_edges(to_parent_vertex.len(), &scratch.list);
    // Sparse reset: only the entries this extraction wrote.
    for &p in &to_parent_vertex {
        scratch.to_local[p as usize] = u32::MAX;
    }
    let map = CompactSubgraphMap {
        to_parent_vertex,
        to_parent_edge: edge_ids,
    };
    (sub, map)
}

/// Scratch-reusing extraction of the subgraph spanned by `edge_ids` into a
/// shared [`CsrArena`] instead of a standalone [`CsrGraph`]. Takes
/// ownership of `edge_ids` (they become the map's `to_parent_edge`
/// verbatim) and reuses `scratch` across calls, so extracting every block
/// of a decomposition is O(block) per block. The interning (and therefore
/// every local id and the local edge order) is the one [`edge_subgraph`]
/// uses, and [`CsrArena::push`] mirrors [`CsrGraph::from_edge_records`], so
/// `arena.view(&span)` is bit-identical to the graph [`edge_subgraph`]
/// builds.
pub fn edge_subgraph_into_arena(
    g: &CsrGraph,
    edge_ids: Vec<EdgeId>,
    scratch: &mut SubgraphScratch,
    arena: &mut CsrArena,
) -> (CsrSpan, CompactSubgraphMap) {
    let mut to_parent_vertex: Vec<VertexId> = Vec::new();
    intern_edge_list(g, &edge_ids, scratch, &mut to_parent_vertex);
    let span = arena.push(to_parent_vertex.len(), &scratch.list);
    for &p in &to_parent_vertex {
        scratch.to_local[p as usize] = u32::MAX;
    }
    let map = CompactSubgraphMap {
        to_parent_vertex,
        to_parent_edge: edge_ids,
    };
    (span, map)
}

/// Shared interning core of the extraction functions: stages the local
/// edge list of `edge_ids` into `scratch.list`, assigning compact local
/// vertex ids in order of first appearance. Leaves `scratch.to_local`
/// holding the live `parent -> local` entries; the caller must sparse-reset
/// them (walking `to_parent_vertex`) when done.
fn intern_edge_list(
    g: &CsrGraph,
    edge_ids: &[EdgeId],
    scratch: &mut SubgraphScratch,
    to_parent_vertex: &mut Vec<VertexId>,
) {
    if scratch.to_local.len() < g.n() {
        scratch.to_local.resize(g.n(), u32::MAX);
    }
    let to_local = &mut scratch.to_local;
    scratch.list.clear();
    let intern = |v: VertexId, to_local: &mut [u32], to_parent: &mut Vec<u32>| {
        if to_local[v as usize] == u32::MAX {
            to_local[v as usize] = to_parent.len() as u32;
            to_parent.push(v);
        }
        to_local[v as usize]
    };
    for &e in edge_ids {
        let r = g.edge(e);
        let lu = intern(r.u, to_local, to_parent_vertex);
        let lv = intern(r.v, to_local, to_parent_vertex);
        scratch.list.push((lu, lv, r.w));
    }
}

/// Extracts the subgraph spanned by `edge_ids` (vertices are those incident
/// to the listed edges, renumbered compactly in order of first appearance).
///
/// Allocates its own scratch and rebuilds the dense `parent -> local`
/// array for the returned [`SubgraphMap`].
pub fn edge_subgraph(g: &CsrGraph, edge_ids: &[EdgeId]) -> (CsrGraph, SubgraphMap) {
    let mut scratch = SubgraphScratch::new();
    let (sub, compact) = edge_subgraph_reusing(g, edge_ids.to_vec(), &mut scratch);
    // The scratch's map was sparsely reset back to all-MAX; re-mark this
    // subgraph's vertices to hand out as the dense map.
    let mut to_local = scratch.to_local;
    for (l, &p) in compact.to_parent_vertex.iter().enumerate() {
        to_local[p as usize] = l as u32;
    }
    let map = SubgraphMap {
        to_parent_vertex: compact.to_parent_vertex,
        to_parent_edge: compact.to_parent_edge,
        to_local_vertex: to_local,
    };
    (sub, map)
}

/// Extracts the subgraph induced by a vertex set: all edges of `g` whose
/// endpoints are both in `vertices`, plus the isolated members of
/// `vertices`, which take the trailing local ids in caller order.
///
/// Built directly on the interning core [`edge_subgraph`] uses: the
/// isolated members are appended to the vertex table *before* the single
/// CSR construction, so there is no rebuild and no edge-id-list copy.
pub fn induced_subgraph(g: &CsrGraph, vertices: &[VertexId]) -> (CsrGraph, SubgraphMap) {
    let mut inset = vec![false; g.n()];
    for &v in vertices {
        inset[v as usize] = true;
    }
    let keep: Vec<EdgeId> = (0..g.m() as u32)
        .filter(|&e| {
            let r = g.edge(e);
            inset[r.u as usize] && inset[r.v as usize]
        })
        .collect();
    let mut scratch = SubgraphScratch::new();
    let mut to_parent_vertex: Vec<VertexId> = Vec::new();
    intern_edge_list(g, &keep, &mut scratch, &mut to_parent_vertex);
    for &v in vertices {
        if scratch.to_local[v as usize] == u32::MAX {
            scratch.to_local[v as usize] = to_parent_vertex.len() as u32;
            to_parent_vertex.push(v);
        }
    }
    let sub = CsrGraph::from_edges(to_parent_vertex.len(), &scratch.list);
    // `scratch.to_local` already holds exactly this subgraph's dense map
    // (parent-sized, `u32::MAX` outside the vertex set): hand it out.
    let map = SubgraphMap {
        to_parent_vertex,
        to_parent_edge: keep,
        to_local_vertex: scratch.to_local,
    };
    (sub, map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_diagonal() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)])
    }

    #[test]
    fn edge_subgraph_renumbers_compactly() {
        let g = square_with_diagonal();
        let (sub, map) = edge_subgraph(&g, &[1, 2]); // edges (1,2) and (2,3)
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        let parents: Vec<_> = (0..3).map(|l| map.parent(l)).collect();
        assert_eq!(parents, vec![1, 2, 3]);
        assert_eq!(map.local(0), None);
        assert_eq!(map.local(2), Some(1));
    }

    #[test]
    fn edge_subgraph_preserves_weights_and_edge_ids() {
        let g = square_with_diagonal();
        let (sub, map) = edge_subgraph(&g, &[4, 0]);
        assert_eq!(sub.weight(0), 5);
        assert_eq!(sub.weight(1), 1);
        assert_eq!(map.to_parent_edge, vec![4, 0]);
    }

    #[test]
    fn induced_subgraph_takes_all_internal_edges() {
        let g = square_with_diagonal();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        // internal edges: (0,1), (1,2), (0,2)
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3);
        assert!(map.local(3).is_none());
    }

    #[test]
    fn induced_subgraph_keeps_isolated_vertices() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1);
        let l2 = map.local(2).unwrap();
        assert_eq!(sub.degree(l2), 0);
        assert_eq!(map.parent(l2), 2);
    }

    #[test]
    fn empty_edge_set_gives_empty_graph() {
        let g = square_with_diagonal();
        let (sub, _) = edge_subgraph(&g, &[]);
        assert_eq!(sub.n(), 0);
        assert_eq!(sub.m(), 0);
    }

    #[test]
    fn reusing_variant_matches_one_shot_across_repeated_extractions() {
        let g = square_with_diagonal();
        let mut scratch = SubgraphScratch::new();
        for ids in [vec![1, 2], vec![4, 0], vec![0, 1, 2, 3, 4], vec![3]] {
            let (sub_a, map_a) = edge_subgraph(&g, &ids);
            let (sub_b, map_b) = edge_subgraph_reusing(&g, ids.clone(), &mut scratch);
            assert_eq!(sub_a.n(), sub_b.n());
            assert_eq!(sub_a.edges(), sub_b.edges());
            assert_eq!(map_a.to_parent_vertex, map_b.to_parent_vertex);
            assert_eq!(map_b.to_parent_edge, ids);
        }
    }

    #[test]
    fn arena_extraction_matches_standalone() {
        let g = square_with_diagonal();
        let mut scratch = SubgraphScratch::new();
        let mut arena = CsrArena::new();
        for ids in [vec![1, 2], vec![4, 0], vec![0, 1, 2, 3, 4], vec![3]] {
            let (sub, map) = edge_subgraph_reusing(&g, ids.clone(), &mut scratch);
            let (span, amap) = edge_subgraph_into_arena(&g, ids, &mut scratch, &mut arena);
            let v = arena.view(&span);
            assert_eq!(v.n(), sub.n());
            assert_eq!(v.edges(), sub.edges());
            for u in 0..sub.n() as u32 {
                assert_eq!(v.neighbors(u), sub.neighbors(u));
            }
            assert_eq!(amap.to_parent_vertex, map.to_parent_vertex);
            assert_eq!(amap.to_parent_edge, map.to_parent_edge);
        }
        assert!(scratch.to_local.iter().all(|&l| l == u32::MAX));
    }

    #[test]
    fn induced_subgraph_orders_edges_then_isolated() {
        // Local ids: first appearance along kept edges, then isolated
        // members in caller order.
        let g = CsrGraph::from_edges(5, &[(3, 1, 1), (1, 0, 2), (2, 4, 5)]);
        let (sub, map) = induced_subgraph(&g, &[4, 0, 1, 3]);
        assert_eq!(sub.m(), 2); // (3,1) and (1,0)
        assert_eq!(map.to_parent_vertex, vec![3, 1, 0, 4]);
        assert_eq!(map.local(4), Some(3));
        assert_eq!(map.local(2), None);
        assert_eq!(sub.degree(3), 0);
    }

    #[test]
    fn scratch_is_clean_between_calls() {
        let g = square_with_diagonal();
        let mut scratch = SubgraphScratch::new();
        let _ = edge_subgraph_reusing(&g, vec![0, 1, 2, 3, 4], &mut scratch);
        assert!(scratch.to_local.iter().all(|&l| l == u32::MAX));
        // A later extraction on a disjoint edge set must renumber from zero.
        let (sub, map) = edge_subgraph_reusing(&g, vec![2], &mut scratch);
        assert_eq!(sub.n(), 2);
        assert_eq!(map.to_parent_vertex, vec![2, 3]);
    }
}
