//! The block-cut tree and articulation-point routing (paper §2.2, Stage 2).
//!
//! Nodes are the biconnected components (*blocks*) plus the articulation
//! points; a block is adjacent to exactly the articulation points it
//! contains. The structure is a forest (one tree per connected component of
//! the graph). The tree path between two nodes is unique, so the
//! articulation point through which a `u → v` shortest path leaves `u`'s
//! block depends only on the two tree nodes — exactly the `a_1`/`a_2` of
//! the paper's cross-component distance formula
//! `d(n_1,n_2) = d(n_1,a_1) + d(a_1,a_2) + d(a_2,n_2)`.
//!
//! [`BlockCutTree::gateway`] answers that question from DFS preorder
//! intervals: when the target lies inside a block's subtree, the exit is
//! the child articulation point whose interval holds the target's
//! preorder number (a binary search); otherwise it is the block's parent.
//! No ancestor walk is needed, and the router is a handful of flat
//! arrays: one [`Endpoint`] per vertex, one interval and parent gateway
//! per block, and one CSR of child gateways.

use ear_graph::VertexId;

/// Block-cut forest and its query router.
#[derive(Clone, Debug)]
pub struct BlockCutTree {
    /// Number of blocks (tree nodes `0..n_blocks`).
    pub n_blocks: usize,
    /// Articulation vertices; tree node of `aps[i]` is `n_blocks + i`.
    pub aps: Vec<VertexId>,
    /// `vertex → index into aps` (`u32::MAX` when not an articulation point).
    pub ap_index: Vec<u32>,
    /// `vertex → a block containing it` (`u32::MAX` for isolated vertices).
    /// Unique for non-articulation vertices.
    pub vertex_block: Vec<u32>,
    /// Articulation points contained in each block, ascending.
    pub block_aps: Vec<Vec<VertexId>>,
    /// The inverse of `block_aps`, a CSR over AP indices: the blocks of AP
    /// `a` are `ap_blocks[ap_block_start[a]..ap_block_start[a + 1]]`, each
    /// as `(block, position of the AP in block_aps[block])`, ascending.
    ap_block_start: Vec<u32>,
    ap_blocks: Vec<(u32, u32)>,
    /// Preorder number of every tree node.
    pre: Vec<u32>,
    endpoints: Vec<Endpoint>,
    blocks: Vec<BlockSpan>,
    /// `(preorder number of the AP node, gateway)`, ascending per block.
    children: Vec<(u32, Gateway)>,
}

/// One vertex's routing record, 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// Tree node: the home block id, or `n_blocks + AP index` for an
    /// articulation point (`u32::MAX` for an isolated vertex).
    pub node: u32,
    /// Local id in the vertex's home block ([`BlockCutTree::vertex_block`]).
    pub local: u32,
    /// Preorder number of `node`.
    pub pre: u32,
    /// Tree id of `node` (`u32::MAX` for an isolated vertex).
    pub tree: u32,
}

/// An articulation point as seen from one of its blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gateway {
    /// AP index (row of the AP distance table).
    pub ap: u32,
    /// The AP's local id in that block.
    pub local: u32,
}

/// A block's preorder interval `[pre, end)`, its parent gateway
/// (`ap == u32::MAX` for a tree root) and the range of its child gateways
/// in `BlockCutTree::children`.
#[derive(Clone, Copy, Debug)]
struct BlockSpan {
    pre: u32,
    end: u32,
    parent: Gateway,
    kids: (u32, u32),
}

impl BlockCutTree {
    /// Builds the tree and its router from a graph's articulation-point
    /// flags (one per vertex) and its `n_blocks` biconnected components:
    /// `members(b)` is block `b`'s `local → parent` vertex map, which fixes
    /// every local id the router hands out.
    pub fn new<'a>(
        is_articulation: &[bool],
        n_blocks: usize,
        members: impl Fn(usize) -> &'a [VertexId],
    ) -> Self {
        let n = is_articulation.len();
        let mut ap_index = vec![u32::MAX; n];
        let mut aps = Vec::new();
        for v in 0..n as u32 {
            if is_articulation[v as usize] {
                ap_index[v as usize] = aps.len() as u32;
                aps.push(v);
            }
        }
        let node_count = n_blocks + aps.len();

        let mut vertex_block = vec![u32::MAX; n];
        let mut block_aps: Vec<Vec<VertexId>> = vec![Vec::new(); n_blocks];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        for (b, aps_b) in block_aps.iter_mut().enumerate() {
            let vs = members(b);
            // A block of self-loops alone is its own tree; it is a
            // vertex's home only when the vertex has no other block.
            for &v in vs {
                if ap_index[v as usize] != u32::MAX {
                    aps_b.push(v);
                } else if vs.len() > 1 || vertex_block[v as usize] == u32::MAX {
                    vertex_block[v as usize] = b as u32;
                }
            }
            aps_b.sort_unstable();
            for &v in aps_b.iter() {
                let ap_node = n_blocks as u32 + ap_index[v as usize];
                adj[b].push(ap_node);
                adj[ap_node as usize].push(b as u32);
                // For an AP, keep any one containing block.
                vertex_block[v as usize] = b as u32;
            }
        }

        let mut ap_block_start = vec![0u32; aps.len() + 1];
        for &v in block_aps.iter().flatten() {
            ap_block_start[ap_index[v as usize] as usize + 1] += 1;
        }
        for a in 0..aps.len() {
            ap_block_start[a + 1] += ap_block_start[a];
        }
        let mut next_slot = ap_block_start.clone();
        let mut ap_blocks = vec![(0, 0); ap_block_start[aps.len()] as usize];
        for (b, aps_b) in (0..).zip(&block_aps) {
            for (i, &v) in (0..).zip(aps_b) {
                let slot = &mut next_slot[ap_index[v as usize] as usize];
                ap_blocks[*slot as usize] = (b, i);
                *slot += 1;
            }
        }

        // DFS forest over tree nodes. Roots are taken in node order, so
        // every root is a block (an AP node always has a block neighbour
        // with a smaller id).
        let mut parent = vec![u32::MAX; node_count];
        let mut pre = vec![u32::MAX; node_count];
        let mut end = vec![u32::MAX; node_count];
        let mut tree = vec![u32::MAX; node_count];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let mut next = 0u32;
        for r in 0..node_count as u32 {
            if pre[r as usize] != u32::MAX {
                continue;
            }
            // A tree is named after its root.
            (pre[r as usize], tree[r as usize], next) = (next, r, next + 1);
            stack.push((r, 0));
            while let Some(top) = stack.last_mut() {
                let (x, i) = *top;
                top.1 += 1;
                match adj[x as usize].get(i) {
                    Some(&y) if pre[y as usize] == u32::MAX => {
                        (pre[y as usize], tree[y as usize], next) = (next, r, next + 1);
                        parent[y as usize] = x;
                        stack.push((y, 0));
                    }
                    Some(_) => {}
                    None => {
                        end[x as usize] = next;
                        stack.pop();
                    }
                }
            }
        }

        // The router: per-vertex endpoints, per-block spans and the CSR of
        // child gateways (every AP node is the child of exactly one block).
        let mut endpoints = vec![
            Endpoint {
                node: u32::MAX,
                local: u32::MAX,
                pre: u32::MAX,
                tree: u32::MAX,
            };
            n
        ];
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut children = Vec::with_capacity(aps.len());
        let root = Gateway {
            ap: u32::MAX,
            local: u32::MAX,
        };
        for b in 0..n_blocks {
            let mut span = BlockSpan {
                pre: pre[b],
                end: end[b],
                parent: root,
                kids: (children.len() as u32, 0),
            };
            for (l, &v) in members(b).iter().enumerate() {
                let (ap, l) = (ap_index[v as usize], l as u32);
                let node = if ap == u32::MAX {
                    b
                } else {
                    n_blocks + ap as usize
                };
                if vertex_block[v as usize] == b as u32 {
                    let (pre, tree) = (pre[node], tree[node]);
                    let node = node as u32;
                    endpoints[v as usize] = Endpoint {
                        node,
                        local: l,
                        pre,
                        tree,
                    };
                }
                if ap == u32::MAX {
                    continue;
                }
                let gw = Gateway { ap, local: l };
                if parent[node] == b as u32 {
                    children.push((pre[node], gw));
                } else {
                    span.parent = gw;
                }
            }
            span.kids.1 = children.len() as u32;
            children[span.kids.0 as usize..].sort_unstable_by_key(|&(pre, _)| pre);
            blocks.push(span);
        }

        BlockCutTree {
            n_blocks,
            aps,
            ap_index,
            vertex_block,
            block_aps,
            ap_block_start,
            ap_blocks,
            pre,
            endpoints,
            blocks,
            children,
        }
    }

    /// Number of articulation points.
    pub fn ap_count(&self) -> usize {
        self.aps.len()
    }

    /// The blocks holding AP index `ap`, ascending, each as `(block,
    /// position of the AP in block_aps[block])`.
    #[inline]
    pub fn ap_blocks(&self, ap: u32) -> &[(u32, u32)] {
        let a = ap as usize;
        &self.ap_blocks[self.ap_block_start[a] as usize..self.ap_block_start[a + 1] as usize]
    }

    /// DFS preorder number of a tree node — the `to` argument of
    /// [`Self::gateway`].
    pub fn preorder(&self, node: u32) -> u32 {
        self.pre[node as usize]
    }

    /// Routing record of vertex `v`. Two vertices have a path between
    /// them iff they are one vertex or their `tree` ids match and are not
    /// `u32::MAX`.
    #[inline]
    pub fn endpoint(&self, v: VertexId) -> Endpoint {
        self.endpoints[v as usize]
    }

    /// True when `node` is a block (not an AP node, not the isolated
    /// sentinel).
    #[inline]
    pub fn is_block(&self, node: u32) -> bool {
        (node as usize) < self.n_blocks
    }

    /// AP index of an articulation-point endpoint, `None` otherwise.
    #[inline]
    pub fn ap_of(&self, e: Endpoint) -> Option<u32> {
        let nb = self.n_blocks as u32;
        (e.node >= nb && e.node != u32::MAX).then(|| e.node - nb)
    }

    /// The articulation point through which the tree path from block `b`
    /// to the node with preorder number `to` leaves `b`. The target must
    /// be another node of `b`'s tree.
    #[inline]
    pub fn gateway(&self, b: u32, to: u32) -> Gateway {
        let span = self.blocks[b as usize];
        if to > span.pre && to < span.end {
            let kids = &self.children[span.kids.0 as usize..span.kids.1 as usize];
            kids[kids.partition_point(|&(pre, _)| pre <= to) - 1].1
        } else {
            debug_assert!(span.parent.ap != u32::MAX, "target outside the tree");
            span.parent
        }
    }

    /// Block → AP gateway entries stored: `Σ` APs per block.
    pub fn gateway_entries(&self) -> usize {
        let parents = self.blocks.iter().filter(|s| s.parent.ap != u32::MAX);
        self.children.len() + parents.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcc::biconnected_components;
    use crate::plan::DecompPlan;
    use ear_graph::CsrGraph;

    /// triangle(0,1,2) — AP 2 — triangle(2,3,4) — AP 4 — edge(4,5)
    fn chain_of_blocks() -> CsrGraph {
        CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 2, 1),
                (4, 5, 1),
            ],
        )
    }

    /// The APs a `u → v` path leaves `u`'s side through and enters `v`'s
    /// side through: an AP endpoint is its own exit, anyone else leaves
    /// its home block through the router's gateway toward the other end.
    fn exits(plan: &DecompPlan, u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        let (r, aps) = (plan.bct(), &plan.bct().aps);
        let exit = |x: Endpoint, y: Endpoint| match r.ap_of(x) {
            Some(a) => aps[a as usize],
            None => {
                let gw = r.gateway(x.node, y.pre);
                assert_eq!(plan.local(x.node, aps[gw.ap as usize]), Some(gw.local));
                aps[gw.ap as usize]
            }
        };
        let (eu, ev) = (r.endpoint(u), r.endpoint(v));
        assert_eq!(eu.tree, ev.tree, "({u},{v}) in different trees");
        (exit(eu, ev), exit(ev, eu))
    }

    #[test]
    fn counts_blocks_and_aps() {
        let g = chain_of_blocks();
        let plan = DecompPlan::build(&g);
        let t = plan.bct();
        assert_eq!(t.n_blocks, biconnected_components(&g).count());
        assert_eq!(t.n_blocks, 3);
        assert_eq!(t.aps, vec![2, 4]);
    }

    #[test]
    fn same_block_routing() {
        let plan = DecompPlan::build(&chain_of_blocks());
        let r = plan.bct();
        // Two non-APs of one block share their tree node.
        assert_eq!(r.endpoint(0).node, r.endpoint(1).node);
        assert!(r.is_block(r.endpoint(0).node));
        // AP with a vertex of its own block: the block's gateway toward
        // the AP is the AP itself.
        assert_eq!(exits(&plan, 2, 0), (2, 2));
    }

    #[test]
    fn cross_block_routing_finds_the_aps() {
        let plan = DecompPlan::build(&chain_of_blocks());
        assert_eq!(exits(&plan, 0, 5), (2, 4));
        assert_eq!(exits(&plan, 5, 0), (4, 2));
    }

    #[test]
    fn adjacent_blocks_share_single_ap() {
        let plan = DecompPlan::build(&chain_of_blocks());
        assert_eq!(exits(&plan, 0, 3), (2, 2));
    }

    #[test]
    fn two_aps_in_shared_block() {
        let plan = DecompPlan::build(&chain_of_blocks());
        // 2 and 4 share the middle triangle, whose gateway toward each of
        // them is that AP.
        let r = plan.bct();
        let mid = r.endpoint(3).node;
        for ap in [2u32, 4] {
            let gw = r.gateway(mid, r.endpoint(ap).pre);
            assert_eq!(plan.bct().aps[gw.ap as usize], ap);
        }
        assert_eq!(exits(&plan, 2, 4), (2, 4));
    }

    #[test]
    fn ap_to_distant_vertex() {
        let plan = DecompPlan::build(&chain_of_blocks());
        assert_eq!(exits(&plan, 2, 5), (2, 4));
    }

    #[test]
    fn disconnected_vertices() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)]);
        let plan = DecompPlan::build(&g);
        let r = plan.bct();
        assert_ne!(r.endpoint(0).tree, r.endpoint(3).tree);
        assert_ne!(r.endpoint(0).tree, r.endpoint(4).tree);
        assert_eq!(r.endpoint(3).node, r.endpoint(4).node);
    }

    #[test]
    fn isolated_vertex_routes_nowhere() {
        let plan = DecompPlan::build(&CsrGraph::from_edges(3, &[(0, 1, 1)]));
        let e = plan.bct().endpoint(2);
        assert_eq!((e.node, e.tree), (u32::MAX, u32::MAX));
        assert_eq!(plan.bct().ap_of(e), None);
    }

    #[test]
    fn long_chain_of_bridges() {
        // Path 0-1-2-3-4: every edge a block, inner vertices APs.
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let plan = DecompPlan::build(&g);
        assert_eq!(plan.bct().ap_count(), 3);
        assert_eq!(exits(&plan, 0, 4), (1, 3));
        assert_eq!(exits(&plan, 1, 3), (1, 3));
        // Three APs in two-AP blocks: 2 · 2 + 2 · 1 gateway entries.
        assert_eq!(plan.bct().gateway_entries(), 6);
    }

    #[test]
    fn component_ids_partition_the_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)]);
        let plan = DecompPlan::build(&g);
        let tree = |v| plan.bct().endpoint(v).tree;
        assert_eq!(tree(0), tree(2));
        assert_eq!(tree(3), tree(4));
        assert_ne!(tree(0), tree(3));
        assert_eq!(tree(5), u32::MAX); // isolated
    }

    #[test]
    fn ap_blocks_invert_block_aps() {
        let graphs = [
            chain_of_blocks(),
            CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]),
            CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]),
            CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)]),
        ];
        for g in &graphs {
            let t = DecompPlan::build(g).bct().clone();
            let mut want: Vec<Vec<(u32, u32)>> = vec![Vec::new(); t.ap_count()];
            for (b, aps) in (0..).zip(&t.block_aps) {
                for (i, &v) in (0..).zip(aps) {
                    want[t.ap_index[v as usize] as usize].push((b, i));
                }
            }
            for (a, w) in (0..).zip(&want) {
                assert_eq!(t.ap_blocks(a), &w[..], "AP {}", t.aps[a as usize]);
                assert!(w.len() >= 2, "an AP lies in two blocks or more");
            }
        }
    }

    #[test]
    fn star_graph_hub_is_everyones_gateway() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let plan = DecompPlan::build(&g);
        assert_eq!(exits(&plan, 1, 2), (0, 0));
    }
}
