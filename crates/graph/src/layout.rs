//! Node orderings for cache-aware CSR storage.
//!
//! A [`NodeOrder`] is a bijection between *original* vertex ids (the ids
//! the caller built the graph with, stable at every public API boundary)
//! and *rank* ids (positions in a reordered layout). [`CsrGraph::permute`]
//! rebuilds a graph so vertex `v` lives at `order.rank(v)`; results
//! computed on the permuted graph are mapped back with [`NodeOrder::node`]
//! (dense arrays go through [`NodeOrder::unpermute`]).
//!
//! The ordering that matters for this suite is DFS pre-order clustered by
//! biconnected block — the decomposition plan derives it from its own
//! block structure — but [`NodeOrder::dfs_preorder`] builds the plain
//! whole-graph variant so the permutation machinery can be exercised (and
//! benchmarked) without a plan.
//!
//! [`CsrGraph::permute`]: crate::csr::CsrGraph::permute

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// A bijective vertex ordering: original id ↔ rank (position in the
/// reordered layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeOrder {
    /// `rank[v]` = position of original vertex `v` in the new layout.
    rank: Vec<u32>,
    /// `node[r]` = original vertex at position `r` (inverse of `rank`).
    node: Vec<u32>,
}

impl NodeOrder {
    /// The identity ordering on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let rank: Vec<u32> = (0..n as u32).collect();
        NodeOrder {
            node: rank.clone(),
            rank,
        }
    }

    /// Builds an ordering from a rank array (`rank[v]` = new position of
    /// original vertex `v`).
    ///
    /// # Panics
    /// Panics unless `rank` is a permutation of `0..n`.
    pub fn from_rank(rank: Vec<u32>) -> Self {
        let n = rank.len();
        let mut node = vec![u32::MAX; n];
        for (v, &r) in rank.iter().enumerate() {
            assert!((r as usize) < n, "rank {r} out of range for n = {n}");
            assert_eq!(node[r as usize], u32::MAX, "rank {r} assigned twice");
            node[r as usize] = v as u32;
        }
        NodeOrder { rank, node }
    }

    /// Builds an ordering from a node array (`node[r]` = original vertex
    /// placed at position `r`).
    ///
    /// # Panics
    /// Panics unless `node` is a permutation of `0..n`.
    pub fn from_node(node: Vec<u32>) -> Self {
        let n = node.len();
        let mut rank = vec![u32::MAX; n];
        for (r, &v) in node.iter().enumerate() {
            assert!((v as usize) < n, "vertex {v} out of range for n = {n}");
            assert_eq!(rank[v as usize], u32::MAX, "vertex {v} placed twice");
            rank[v as usize] = r as u32;
        }
        NodeOrder { rank, node }
    }

    /// DFS pre-order over the whole graph: roots in ascending id order,
    /// children pushed in reverse incidence order so they pop in incidence
    /// order. Keeps each connected component's vertices contiguous.
    pub fn dfs_preorder(g: &CsrGraph) -> Self {
        let n = g.n();
        let mut rank = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack: Vec<VertexId> = Vec::new();
        for root in 0..n as u32 {
            if rank[root as usize] != u32::MAX {
                continue;
            }
            rank[root as usize] = next;
            next += 1;
            stack.push(root);
            while let Some(u) = stack.pop() {
                for &(v, _) in g.neighbors(u).iter().rev() {
                    if rank[v as usize] == u32::MAX {
                        rank[v as usize] = next;
                        next += 1;
                        stack.push(v);
                    }
                }
            }
        }
        Self::from_rank(rank)
    }

    /// Number of vertices ordered.
    #[inline]
    pub fn n(&self) -> usize {
        self.rank.len()
    }

    /// Position of original vertex `v` in the reordered layout.
    #[inline]
    pub fn rank(&self, v: VertexId) -> VertexId {
        self.rank[v as usize]
    }

    /// Original vertex at position `r` (inverse of [`NodeOrder::rank`]).
    #[inline]
    pub fn node(&self, r: VertexId) -> VertexId {
        self.node[r as usize]
    }

    /// The full rank array (`rank[v]` = new position of `v`).
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The full node array (`node[r]` = original vertex at position `r`).
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.node
    }

    /// True if this is the identity ordering.
    pub fn is_identity(&self) -> bool {
        self.rank.iter().enumerate().all(|(v, &r)| v as u32 == r)
    }

    /// Maps a dense per-vertex array indexed by rank back to original-id
    /// indexing: `result[v] = by_rank[rank(v)]`.
    pub fn unpermute<T: Copy>(&self, by_rank: &[T]) -> Vec<T> {
        assert_eq!(by_rank.len(), self.n());
        self.rank.iter().map(|&r| by_rank[r as usize]).collect()
    }

    /// Maps a dense per-vertex array indexed by original id to rank
    /// indexing: `result[r] = by_node[node(r)]`.
    pub fn permute<T: Copy>(&self, by_node: &[T]) -> Vec<T> {
        assert_eq!(by_node.len(), self.n());
        self.node.iter().map(|&v| by_node[v as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trips() {
        let o = NodeOrder::identity(5);
        assert!(o.is_identity());
        for v in 0..5 {
            assert_eq!(o.rank(v), v);
            assert_eq!(o.node(v), v);
        }
    }

    #[test]
    fn from_rank_and_from_node_agree() {
        let rank = vec![2, 0, 3, 1];
        let a = NodeOrder::from_rank(rank.clone());
        let b = NodeOrder::from_node(a.nodes().to_vec());
        assert_eq!(a, b);
        for v in 0..4u32 {
            assert_eq!(a.node(a.rank(v)), v);
        }
    }

    #[test]
    #[should_panic]
    fn non_bijection_rejected() {
        NodeOrder::from_rank(vec![0, 0, 1]);
    }

    #[test]
    fn dfs_preorder_clusters_components() {
        // Two components: {0,2,4} (path 0-2-4) and {1,3} (edge).
        let g = CsrGraph::from_edges(5, &[(0, 2, 1), (2, 4, 1), (1, 3, 1)]);
        let o = NodeOrder::dfs_preorder(&g);
        assert_eq!(o.rank(0), 0);
        assert_eq!(o.rank(2), 1);
        assert_eq!(o.rank(4), 2);
        assert_eq!(o.rank(1), 3);
        assert_eq!(o.rank(3), 4);
    }

    #[test]
    fn permute_unpermute_round_trip() {
        let o = NodeOrder::from_rank(vec![2, 0, 3, 1]);
        let by_node = vec![10u64, 11, 12, 13];
        let by_rank = o.permute(&by_node);
        assert_eq!(by_rank, vec![11, 13, 10, 12]);
        assert_eq!(o.unpermute(&by_rank), by_node);
    }
}
