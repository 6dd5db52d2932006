//! Degree-2 chain contraction: the paper's *reduced graph* `G^r`.
//!
//! Vertices retained in `G^r` are those whose degree differs from two (the
//! paper's biconnected setting makes these exactly the degree ≥ 3 vertices);
//! every maximal chain of degree-2 vertices between two retained anchors is
//! replaced by a single edge whose weight is the chain's total weight
//! (paper §2.1.1). Components that are pure cycles (every vertex degree 2)
//! get one honorary anchor so the cycle survives as a self-loop — the paper
//! implicitly assumes this case away; keeping it makes the reduction total.
//!
//! The contraction retains, for every removed vertex `x`, the anchors
//! `left(x)`/`right(x)` and the exact prefix weights `wt(x, left(x))` /
//! `wt(x, right(x))` along its chain: these are precisely the inputs of the
//! APSP post-processing formulas (paper §2.1.3), and the chain edge lists
//! drive the MCB cycle re-expansion (paper Lemma 3.1).
//!
//! The decomposition plan renumbers each contracted block *retained
//! first* (anchors `0..k` in retained order, then each chain's interior in
//! walk order), so in a plan's reductions `to_reduced` is the identity on
//! `0..k` and a removed vertex's chain is a contiguous id range.
//!
//! `G^r` is a **multigraph**: parallel chains between the same anchor pair
//! become parallel edges and anchor-to-self chains become self-loops. The
//! MCB pipeline needs them (each is an independent cycle generator); APSP
//! simply lets Dijkstra skip the non-minimal copies.
//!
//! # Topology / weight layering
//!
//! The contraction is split into two layers. [`ReducedTopology`] is
//! everything the chain walks discover that does not depend on weights:
//! the anchor set, the retained numbering, the chain edge/interior lists,
//! and each reduced edge's origin. The weight layer — chain totals, the
//! per-removed-vertex prefix weights, and the reduced multigraph's edge
//! weights — is recomputed from a recorded topology by one pass over the
//! chain edge lists, **without re-walking the degree-2 paths**:
//! [`ReducedGraph::reweighted`] shares the topology (an [`Arc`]) and the
//! reduced CSR's structure arrays with the original and is bit-identical
//! to a cold [`reduce_graph`] of the reweighted block.

use std::ops::Deref;
use std::sync::Arc;

use ear_graph::{CsrGraph, CsrView, EdgeId, VertexId, Weight, INF};

/// Error returned when chain contraction is asked to reduce a non-simple
/// graph (self-loops or parallel edges present).
///
/// Contraction is defined on *simple* graphs only: a degree-2 vertex with a
/// self-loop or a parallel pair does not sit on a well-defined chain, and
/// the paper's `left/right` bookkeeping (§2.1.1) assumes distinct chain
/// neighbors. Callers that slice a multigraph into biconnected blocks
/// should check each block (e.g. via the plan's per-block simplicity flag,
/// [`crate::plan::DecompPlan::is_simple`]) and fall back to the unreduced
/// block instead of reducing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotSimpleError;

impl std::fmt::Display for NotSimpleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("chain contraction requires a simple graph (no self-loops or parallel edges)")
    }
}

impl std::error::Error for NotSimpleError {}

/// A maximal degree-2 chain that was contracted into one reduced edge —
/// the weight-independent part (edge ids and vertex ids only; totals and
/// prefix weights live in the owning [`ReducedGraph`]'s weight layer).
#[derive(Clone, Debug)]
pub struct ChainTopology {
    /// Left anchor (original vertex id, retained in `G^r`).
    pub left: VertexId,
    /// Right anchor (may equal `left` when the chain closes on itself).
    pub right: VertexId,
    /// Original edges in path order, `left → right`.
    pub edges: Vec<EdgeId>,
    /// Removed interior vertices in path order.
    pub interior: Vec<VertexId>,
}

/// Where a reduced edge came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOrigin {
    /// An original edge between two retained vertices, kept verbatim.
    Direct(EdgeId),
    /// A contracted chain, indexing [`ReducedTopology::chains`].
    Chain(u32),
}

/// Weight-independent placement of a removed vertex on its chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemovedSlot {
    /// Chain the vertex sits on.
    pub chain: u32,
    /// Position inside [`ChainTopology::interior`].
    pub pos: u32,
    /// `left(x)` — original id of the anchor towards the chain head.
    pub left: VertexId,
    /// `right(x)` — original id of the anchor towards the chain tail.
    pub right: VertexId,
}

/// Per-removed-vertex metadata: the `left/right` functions of paper §2.1.1
/// together with the exact chain prefix distances. Assembled on demand by
/// [`ReducedGraph::removed_info`] from the topology slot and the current
/// weight layer.
#[derive(Clone, Copy, Debug)]
pub struct RemovedInfo {
    /// Chain the vertex sits on.
    pub chain: u32,
    /// Position inside [`ChainTopology::interior`].
    pub pos: u32,
    /// `left(x)` — original id of the anchor towards the chain head.
    pub left: VertexId,
    /// `right(x)` — original id of the anchor towards the chain tail.
    pub right: VertexId,
    /// `wt(x, left(x))`: exact distance along the chain to the left anchor.
    pub w_left: Weight,
    /// `wt(x, right(x))`: exact distance along the chain to the right anchor.
    pub w_right: Weight,
    /// `wt(x, left(x))` unsaturated: a chain of fewer than 2³² edges of
    /// weight at most [`INF`] cannot overflow it, so differences of two
    /// prefixes on one chain stay exact even where `w_left` saturates.
    prefix: u128,
}

impl RemovedInfo {
    /// The direct sub-chain distance between `self` and `other`, which must
    /// sit on the same chain: the unique path along the chain that uses
    /// neither anchor, saturated at [`INF`].
    #[inline]
    pub fn along_chain(&self, other: &RemovedInfo) -> Weight {
        debug_assert_eq!(self.chain, other.chain, "vertices on different chains");
        clamp_inf(self.prefix.abs_diff(other.prefix))
    }
}

/// An unsaturated chain sum saturated at [`INF`], like every path sum.
#[inline]
fn clamp_inf(w: u128) -> Weight {
    w.min(INF as u128) as Weight
}

/// The weight-independent layer of a contraction: anchors, numbering,
/// chains and reduced-edge origins. Shared by every [`ReducedGraph`] in a
/// `reweighted` family via [`Arc`].
#[derive(Clone, Debug)]
pub struct ReducedTopology {
    /// `local → original` vertex ids.
    pub retained: Vec<VertexId>,
    /// `original → local` vertex ids (`u32::MAX` for removed vertices).
    pub to_reduced: Vec<u32>,
    /// One entry per reduced edge describing its origin.
    pub edge_origin: Vec<EdgeOrigin>,
    /// All contracted chains (weight-independent part).
    pub chains: Vec<ChainTopology>,
    /// `original vertex → chain slot` (`None` for retained vertices).
    pub removed: Vec<Option<RemovedSlot>>,
}

impl ReducedTopology {
    /// Number of vertices removed.
    pub fn removed_count(&self) -> usize {
        self.removed.iter().filter(|r| r.is_some()).count()
    }

    /// Local reduced id of an original vertex, if retained.
    pub fn local(&self, original: VertexId) -> Option<VertexId> {
        let l = self.to_reduced[original as usize];
        (l != u32::MAX).then_some(l)
    }

    /// Expands a reduced edge back to the original edge ids it stands for,
    /// in path order from the edge's `u` endpoint.
    pub fn expand_edge(&self, reduced_edge: EdgeId) -> Vec<EdgeId> {
        match self.edge_origin[reduced_edge as usize] {
            EdgeOrigin::Direct(e) => vec![e],
            EdgeOrigin::Chain(c) => self.chains[c as usize].edges.clone(),
        }
    }
}

/// The reduced graph `G^r` plus everything needed to map results back to
/// the original graph.
///
/// Internally two-layered: an [`Arc<ReducedTopology>`] (shared, immutable)
/// plus the weight layer (`reduced` multigraph, chain totals, prefix
/// weights). Derefs to [`ReducedTopology`], so topology reads
/// (`r.retained`, `r.chains`, `r.expand_edge(..)`) keep their call shape.
#[derive(Clone, Debug)]
pub struct ReducedGraph {
    topo: Arc<ReducedTopology>,
    /// The contracted multigraph on the retained vertices (local ids).
    pub reduced: CsrGraph,
    /// Chain totals and per-removed-vertex prefix / suffix weights.
    w: ChainWeights,
}

impl Deref for ReducedGraph {
    type Target = ReducedTopology;

    fn deref(&self) -> &ReducedTopology {
        &self.topo
    }
}

impl ReducedGraph {
    /// Assembles the weight layer for `topo` from the block's current
    /// weights — the one construction path shared by the cold build and
    /// [`ReducedGraph::reweighted`], so both are bit-identical by
    /// construction.
    fn customize(topo: Arc<ReducedTopology>, g: CsrView<'_>) -> ReducedGraph {
        let w = compute_chain_weights(&topo, g);
        let reduced_edges: Vec<(u32, u32, Weight)> = topo
            .edge_origin
            .iter()
            .map(|&o| match o {
                EdgeOrigin::Direct(e) => {
                    let r = g.edge(e);
                    (
                        topo.to_reduced[r.u as usize],
                        topo.to_reduced[r.v as usize],
                        r.w,
                    )
                }
                EdgeOrigin::Chain(c) => {
                    let ch = &topo.chains[c as usize];
                    (
                        topo.to_reduced[ch.left as usize],
                        topo.to_reduced[ch.right as usize],
                        w.chain_weight(c),
                    )
                }
            })
            .collect();
        let reduced = CsrGraph::from_edges(topo.retained.len(), &reduced_edges);
        ReducedGraph { topo, reduced, w }
    }

    /// The same contraction under the block's new weights: reuses the
    /// recorded chains (no degree-2 re-walk) to resum chain totals and
    /// prefix weights, and swaps the reduced multigraph's weight layer via
    /// [`CsrGraph::reweighted`]. `g` must be the *same block topology* the
    /// contraction was built from, only reweighted. The result is
    /// bit-identical to a cold [`reduce_graph`] of `g` while sharing the
    /// topology [`Arc`] and the reduced CSR's structure arrays with `self`.
    pub fn reweighted(&self, g: CsrView<'_>) -> ReducedGraph {
        let w = compute_chain_weights(&self.topo, g);
        let new_reduced_w: Vec<Weight> = self
            .topo
            .edge_origin
            .iter()
            .map(|&o| match o {
                EdgeOrigin::Direct(e) => g.weight(e),
                EdgeOrigin::Chain(c) => w.chain_weight(c),
            })
            .collect();
        ReducedGraph {
            topo: Arc::clone(&self.topo),
            reduced: self.reduced.reweighted(&new_reduced_w),
            w,
        }
    }

    /// The shared weight-independent layer.
    pub fn topology(&self) -> &Arc<ReducedTopology> {
        &self.topo
    }

    /// True when `other` shares this contraction's topology layer (both
    /// came from the same [`ReducedGraph::reweighted`] family). O(1).
    pub fn shares_topology(&self, other: &ReducedGraph) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo) && self.reduced.shares_topology(&other.reduced)
    }

    /// Removal metadata of `x` under the current weights (`None` for
    /// retained vertices): the topology slot joined with the chain prefix
    /// weights — the inputs of the paper's §2.1.3 extension formulas.
    pub fn removed_info(&self, x: VertexId) -> Option<RemovedInfo> {
        let s = self.topo.removed[x as usize]?;
        let k = self.w.chain_off[s.chain as usize] as usize + s.pos as usize;
        let prefix = self.w.prefix[k];
        Some(RemovedInfo {
            chain: s.chain,
            pos: s.pos,
            left: s.left,
            right: s.right,
            w_left: clamp_inf(prefix),
            w_right: clamp_inf(self.w.totals[s.chain as usize] - prefix),
            prefix,
        })
    }

    /// Total weight of chain `c` (the reduced chain-edge's weight),
    /// saturated at [`INF`].
    pub fn chain_weight(&self, c: u32) -> Weight {
        self.w.chain_weight(c)
    }

    /// The along-chain distance from removed `x` to every interior vertex
    /// of its chain, in walk order (0 at `x` itself), saturated at
    /// [`INF`]: the exact prefix differences of
    /// [`RemovedInfo::along_chain`], one chain at a time.
    ///
    /// # Panics
    /// Panics if `x` is retained.
    pub fn along_chain_from(&self, x: VertexId) -> impl Iterator<Item = Weight> + '_ {
        let s = self.topo.removed[x as usize].expect("a removed vertex");
        let (c, w) = (s.chain as usize, &self.w);
        let window = &w.prefix[w.chain_off[c] as usize..w.chain_off[c + 1] as usize];
        let px = window[s.pos as usize];
        window.iter().map(move |&p| clamp_inf(p.abs_diff(px)))
    }

    /// Renumbers this freshly built contraction's graph *retained first*,
    /// writing the new id of every vertex into `new_id`: anchor `i` of
    /// [`ReducedTopology::retained`] becomes vertex `i`, and the removed
    /// vertices follow from `k = retained.len()`, chain by chain in walk
    /// order, so `to_reduced` is the identity on `0..k` and each chain's
    /// interior is a contiguous id range. Only vertex ids change: the
    /// reduced multigraph, the chains' edge lists, the edge origins and the
    /// weight layer stay as they are, and nothing is reallocated.
    ///
    /// The numbering is a fixed point: degrees and each vertex's incidence
    /// order (ascending edge id) survive a renumbering, so [`reduce_graph`]
    /// on the renumbered graph picks the same anchors, in the same order,
    /// and walks the same chains — it returns this contraction.
    ///
    /// # Panics
    /// Panics if the topology is shared (it must come straight from
    /// [`reduce_graph`]) or `new_id` does not hold one entry per vertex.
    pub(crate) fn renumber_retained_first(&mut self, new_id: &mut [VertexId]) {
        let t = Arc::get_mut(&mut self.topo).expect("a fresh contraction is unshared");
        let k = t.retained.len() as u32;
        assert_eq!(new_id.len(), t.to_reduced.len(), "one new id per vertex");
        // Anchors already carry their reduced id; interiors follow.
        new_id.copy_from_slice(&t.to_reduced);
        let mut next = k;
        for &x in t.chains.iter().flat_map(|c| &c.interior) {
            new_id[x as usize] = next;
            next += 1;
        }
        debug_assert_eq!(
            next as usize,
            new_id.len(),
            "every vertex is an anchor or interior"
        );
        let id = |v: VertexId| new_id[v as usize];
        for c in &mut t.chains {
            (c.left, c.right) = (id(c.left), id(c.right));
            c.interior.iter_mut().for_each(|x| *x = id(*x));
        }
        t.removed.truncate(k as usize);
        t.removed.fill(None);
        for (cid, c) in (0..).zip(&t.chains) {
            t.removed.extend((0..).zip(&c.interior).map(|(pos, _)| {
                Some(RemovedSlot {
                    chain: cid,
                    pos,
                    left: c.left,
                    right: c.right,
                })
            }));
        }
        for (v, (r, l)) in (0..).zip(t.retained.iter_mut().zip(&mut t.to_reduced)) {
            (*r, *l) = (v, v);
        }
        t.to_reduced[k as usize..].fill(u32::MAX);
    }
}

/// The chain half of a [`ReducedGraph`]'s weight layer, unsaturated: every
/// edge weighs at most [`INF`] < 2⁶², so a chain of fewer than 2³² edges
/// sums below 2⁹⁴ and each read saturates one exact difference.
#[derive(Clone, Debug)]
struct ChainWeights {
    /// Total weight per chain.
    totals: Vec<u128>,
    /// Flattened `wt(x, left)` per interior vertex, chain-major; window of
    /// chain `c` is `chain_off[c] .. chain_off[c + 1]`. `wt(x, right)` is
    /// the chain total minus it.
    prefix: Vec<u128>,
    chain_off: Vec<u32>,
}

impl ChainWeights {
    fn chain_weight(&self, c: u32) -> Weight {
        clamp_inf(self.totals[c as usize])
    }
}

/// One pass over each recorded chain edge list: totals plus the
/// per-interior-vertex prefix sums, in chain order. Edge `k` of a chain
/// joins the previous vertex to `interior[k]`, so `wt(interior[k], left)`
/// is the sum of edges `0..=k`.
fn compute_chain_weights(topo: &ReducedTopology, g: CsrView<'_>) -> ChainWeights {
    let mut totals = Vec::with_capacity(topo.chains.len());
    let mut chain_off = Vec::with_capacity(topo.chains.len() + 1);
    let total_interior: usize = topo.chains.iter().map(|c| c.interior.len()).sum();
    let mut prefix = Vec::with_capacity(total_interior);
    chain_off.push(0);
    for ch in &topo.chains {
        let mut acc = 0u128;
        for (pos, &e) in ch.edges.iter().enumerate() {
            acc += u128::from(g.weight(e));
            if pos < ch.interior.len() {
                prefix.push(acc);
            }
        }
        totals.push(acc);
        chain_off.push(prefix.len() as u32);
    }
    ChainWeights {
        totals,
        prefix,
        chain_off,
    }
}

/// Contracts all maximal degree-2 chains of `g`.
///
/// # Errors
/// Returns [`NotSimpleError`] if `g` has self-loops or parallel edges —
/// reduction is only defined on simple graphs (see the error type's docs
/// for why, and for what callers should do with non-simple blocks).
pub fn reduce_graph(g: CsrView<'_>) -> Result<ReducedGraph, NotSimpleError> {
    let topo = reduce_topology(g)?;
    Ok(ReducedGraph::customize(Arc::new(topo), g))
}

/// The weight-independent half of [`reduce_graph`]: anchor discovery,
/// retained numbering and the chain walks. Weights are never read.
fn reduce_topology(g: CsrView<'_>) -> Result<ReducedTopology, NotSimpleError> {
    if !g.is_simple() {
        return Err(NotSimpleError);
    }
    let n = g.n();

    // Anchor set: degree != 2, plus one honorary anchor per pure-cycle
    // component (smallest vertex id in the cycle).
    let mut anchor = vec![false; n];
    for v in 0..n as u32 {
        if g.degree(v) != 2 {
            anchor[v as usize] = true;
        }
    }
    mark_pure_cycle_anchors(g, &mut anchor);

    // Retained vertex numbering.
    let mut to_reduced = vec![u32::MAX; n];
    let mut retained = Vec::new();
    for v in 0..n as u32 {
        if anchor[v as usize] {
            to_reduced[v as usize] = retained.len() as u32;
            retained.push(v);
        }
    }

    let mut chains: Vec<ChainTopology> = Vec::new();
    let mut removed: Vec<Option<RemovedSlot>> = vec![None; n];
    let mut edge_origin: Vec<EdgeOrigin> = Vec::new();

    // Direct edges: both endpoints anchors.
    for (idx, e) in g.edges().iter().enumerate() {
        if anchor[e.u as usize] && anchor[e.v as usize] {
            edge_origin.push(EdgeOrigin::Direct(idx as EdgeId));
        }
    }

    // Chains: walk from each anchor into each degree-2 neighbor.
    let mut on_chain = vec![false; n];
    for &a in &retained {
        for &(first, first_edge) in g.neighbors(a) {
            if anchor[first as usize] || on_chain[first as usize] {
                continue;
            }
            let chain = walk_chain(g, &anchor, &mut on_chain, a, first, first_edge);
            let cid = chains.len() as u32;
            for (pos, &x) in chain.interior.iter().enumerate() {
                removed[x as usize] = Some(RemovedSlot {
                    chain: cid,
                    pos: pos as u32,
                    left: chain.left,
                    right: chain.right,
                });
            }
            edge_origin.push(EdgeOrigin::Chain(cid));
            chains.push(chain);
        }
    }

    Ok(ReducedTopology {
        retained,
        to_reduced,
        edge_origin,
        chains,
        removed,
    })
}

/// Walks a maximal chain starting at anchor `a` through degree-2 vertex
/// `first`, reached by `first_edge`, until the next anchor.
fn walk_chain(
    g: CsrView<'_>,
    anchor: &[bool],
    on_chain: &mut [bool],
    a: VertexId,
    first: VertexId,
    first_edge: EdgeId,
) -> ChainTopology {
    let mut edges = vec![first_edge];
    let mut interior = vec![first];
    on_chain[first as usize] = true;
    let mut prev_edge = first_edge;
    let mut cur = first;
    loop {
        // A degree-2 vertex has exactly two incidences; take the one we did
        // not arrive by (edge-id comparison, so parallel topologies cannot
        // confuse the walk).
        let nbrs = g.neighbors(cur);
        debug_assert_eq!(nbrs.len(), 2);
        let (next, e) = if nbrs[0].1 == prev_edge {
            nbrs[1]
        } else {
            nbrs[0]
        };
        edges.push(e);
        if anchor[next as usize] {
            return ChainTopology {
                left: a,
                right: next,
                edges,
                interior,
            };
        }
        on_chain[next as usize] = true;
        interior.push(next);
        prev_edge = e;
        cur = next;
    }
}

/// Finds components where every vertex has degree exactly two (pure cycles)
/// and marks their smallest vertex as an anchor.
fn mark_pure_cycle_anchors(g: CsrView<'_>, anchor: &mut [bool]) {
    let n = g.n();
    let mut seen = vec![false; n];
    for s in 0..n as u32 {
        if seen[s as usize] || anchor[s as usize] {
            continue;
        }
        // Walk the component of s; if we ever meet an anchor it is not a
        // pure cycle.
        let mut stack = vec![s];
        seen[s as usize] = true;
        let mut members = vec![s];
        let mut pure = true;
        while let Some(u) = stack.pop() {
            for &(v, _) in g.neighbors(u) {
                if anchor[v as usize] {
                    pure = false;
                    continue;
                }
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        if pure {
            let rep = *members.iter().min().unwrap();
            anchor[rep as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_graph::{dijkstra, INF};

    /// Square 0-1-2-3 where 1 and 3 are degree-2; plus pendant chain at 0
    /// and a hub edge 0-2 making 0 and 2 degree >= 3.
    ///   0 -(1)- 1 -(2)- 2
    ///   0 -(10)--------- 2
    ///   0 -(3)- 3 -(4)- 2
    fn theta() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (0, 2, 10), (0, 3, 3), (3, 2, 4)])
    }

    #[test]
    fn theta_contracts_two_chains() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        assert_eq!(r.retained, vec![0, 2]);
        assert_eq!(r.removed_count(), 2);
        assert_eq!(r.reduced.n(), 2);
        assert_eq!(r.reduced.m(), 3); // direct 0-2 plus two chain edges
        let mut ws: Vec<Weight> = r.reduced.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![3, 7, 10]);
        assert_eq!(r.chains.len(), 2);
    }

    #[test]
    fn chain_sum_past_u64_max_saturates_at_inf() {
        // The chain 0-1-2-3-4-5 is five edges of INF - 1: each weight is
        // legal, their sum passes u64::MAX.
        let w = INF - 1;
        let mut edges: Vec<(u32, u32, Weight)> = (0..5).map(|i| (i, i + 1, w)).collect();
        edges.extend([(0, 5, 5), (0, 6, 1), (6, 5, 1)]);
        let g = CsrGraph::from_edges(7, &edges);
        assert!((0..5).map(|_| u128::from(w)).sum::<u128>() > u128::from(u64::MAX));
        let r = reduce_graph(g.view()).unwrap();
        let chain = r.removed_info(1).unwrap().chain;
        assert_eq!(r.chain_weight(chain), INF);
        let mut ws: Vec<Weight> = r.reduced.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![2, 5, INF]);
    }

    #[test]
    fn saturated_chain_keeps_exact_suffix_weights() {
        // Each half of the chain 0-1-2 is below INF, their sum is not.
        let b = INF / 2 + 5;
        let g = CsrGraph::from_edges(4, &[(0, 1, b), (1, 2, b), (0, 2, 7), (0, 3, 1), (3, 2, 1)]);
        let r = reduce_graph(g.view()).unwrap();
        let i1 = r.removed_info(1).unwrap();
        assert_eq!(r.chain_weight(i1.chain), INF);
        assert_eq!((i1.w_left, i1.w_right), (b, b));
        let i3 = r.removed_info(3).unwrap();
        assert_eq!((i3.w_left, i3.w_right), (1, 1));
    }

    #[test]
    fn removed_info_prefix_weights() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        let i1 = r.removed_info(1).unwrap();
        assert_eq!(i1.w_left + i1.w_right, 3);
        // distance to the anchors along the chain must match Dijkstra on the
        // original graph restricted to the chain (here global shortest too).
        let d = dijkstra(&g, 1);
        let (dl, dr) = (d[i1.left as usize], d[i1.right as usize]);
        assert_eq!(i1.w_left.min(i1.w_right), dl.min(dr));
        let i3 = r.removed_info(3).unwrap();
        assert_eq!(i3.w_left + i3.w_right, 7);
        assert_eq!(i3.w_left, 3);
        assert_eq!(i3.w_right, 4);
    }

    #[test]
    fn long_chain_positions_and_weights() {
        // anchors 0 (deg 3 via extra edges) ... chain 0-1-2-3-4 with 4 deg>=3.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 4, 4),
                // make 0 and 4 degree 3:
                (0, 5, 1),
                (0, 6, 1),
                (4, 5, 1),
                (4, 6, 1),
            ],
        );
        let r = reduce_graph(g.view()).unwrap();
        assert!(r.removed_info(0).is_none());
        assert!(r.removed_info(4).is_none());
        for (x, wl) in [(1u32, 1u64), (2, 3), (3, 6)] {
            let info = r.removed_info(x).unwrap();
            let (l, rgt) = if info.left == 0 {
                (info.w_left, info.w_right)
            } else {
                (info.w_right, info.w_left)
            };
            assert_eq!(l, wl, "vertex {x}");
            assert_eq!(l + rgt, 10);
        }
        let cid = r.removed_info(1).unwrap().chain;
        assert_eq!(r.chains[cid as usize].interior.len(), 3);
        assert_eq!(r.chain_weight(cid), 10);
    }

    #[test]
    fn pure_cycle_becomes_self_loop() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let r = reduce_graph(g.view()).unwrap();
        assert_eq!(r.retained, vec![0]);
        assert_eq!(r.reduced.m(), 1);
        let e = r.reduced.edge(0);
        assert!(e.is_self_loop());
        assert_eq!(e.w, 4);
        assert_eq!(r.removed_count(), 3);
    }

    #[test]
    fn graph_without_degree_two_is_untouched() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        );
        let r = reduce_graph(g.view()).unwrap();
        assert_eq!(r.removed_count(), 0);
        assert_eq!(r.reduced.n(), 4);
        assert_eq!(r.reduced.m(), 6);
        assert!(r
            .edge_origin
            .iter()
            .all(|o| matches!(o, EdgeOrigin::Direct(_))));
    }

    #[test]
    fn pendant_path_keeps_leaf_as_anchor() {
        // 0 (hub deg 3) with pendant chain 0-4-5 (5 is a degree-1 leaf).
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (0, 3, 1),
                (3, 1, 1),
                (0, 4, 2),
                (4, 5, 3),
            ],
        );
        let r = reduce_graph(g.view()).unwrap();
        assert!(r.removed_info(4).is_some());
        assert!(r.removed_info(5).is_none()); // degree-1 vertices are anchors
        let info = r.removed_info(4).unwrap();
        assert_eq!(info.w_left + info.w_right, 5);
        // Edge 0..5 chain became one reduced edge of weight 5.
        let w: Vec<Weight> = r
            .chains
            .iter()
            .enumerate()
            .filter(|(_, c)| (c.left == 0 && c.right == 5) || (c.left == 5 && c.right == 0))
            .map(|(cid, _)| r.chain_weight(cid as u32))
            .collect();
        assert_eq!(w, vec![5]);
    }

    #[test]
    fn parallel_chains_become_parallel_edges() {
        // Two vertices joined by three chains of lengths 2,2,1 edges.
        let g = CsrGraph::from_edges(4, &[(0, 2, 1), (2, 1, 1), (0, 3, 2), (3, 1, 2), (0, 1, 9)]);
        let r = reduce_graph(g.view()).unwrap();
        assert_eq!(r.reduced.n(), 2);
        assert_eq!(r.reduced.m(), 3);
        assert!(!r.reduced.is_simple()); // parallel edges preserved
        let mut ws: Vec<Weight> = r.reduced.edges().iter().map(|e| e.w).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![2, 4, 9]);
    }

    #[test]
    fn expand_edge_roundtrips_chains() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        for re in 0..r.reduced.m() as u32 {
            let orig = r.expand_edge(re);
            let total: Weight = orig.iter().map(|&e| g.weight(e)).sum();
            assert_eq!(total, r.reduced.weight(re));
        }
    }

    #[test]
    fn chain_edge_count_partitions_original_edges() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        let mut covered: Vec<EdgeId> = (0..r.reduced.m() as u32)
            .flat_map(|re| r.expand_edge(re))
            .collect();
        covered.sort_unstable();
        let all: Vec<EdgeId> = (0..g.m() as u32).collect();
        assert_eq!(covered, all);
    }

    #[test]
    fn anchor_to_self_chain_is_self_loop() {
        // Hub 0 (degree 4) with a lollipop cycle 0-1-2-0 of degree-2 vertices.
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1), (0, 4, 1)]);
        let r = reduce_graph(g.view()).unwrap();
        let loops: Vec<_> = r
            .reduced
            .edges()
            .iter()
            .filter(|e| e.is_self_loop())
            .collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].w, 3);
    }

    #[test]
    fn rejects_multigraph_input_with_error() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 1), (0, 1, 2)]);
        assert_eq!(reduce_graph(g.view()).unwrap_err(), NotSimpleError);
        let g = CsrGraph::from_edges(2, &[(0, 0, 1), (0, 1, 2)]);
        assert_eq!(reduce_graph(g.view()).unwrap_err(), NotSimpleError);
    }

    #[test]
    fn reweighted_matches_cold_reduce_and_shares_topology() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        let new_w: Vec<Weight> = g.edges().iter().map(|e| e.w * 3 + 1).collect();
        let h = g.reweighted(&new_w);
        let warm = r.reweighted(h.view());
        let cold = reduce_graph(h.view()).unwrap();
        assert_eq!(warm.reduced.edges(), cold.reduced.edges());
        for x in 0..g.n() as u32 {
            match (warm.removed_info(x), cold.removed_info(x)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(
                    (a.chain, a.pos, a.left, a.right, a.w_left, a.w_right),
                    (b.chain, b.pos, b.left, b.right, b.w_left, b.w_right)
                ),
                _ => panic!("removed mismatch at {x}"),
            }
        }
        for c in 0..warm.chains.len() as u32 {
            assert_eq!(warm.chain_weight(c), cold.chain_weight(c));
        }
        assert!(r.shares_topology(&warm));
        assert!(!r.shares_topology(&cold));
        // Original's weight layer untouched.
        assert_eq!(r.chain_weight(0) + r.chain_weight(1), 10);
    }

    /// `g` with vertex `v` renamed `new_id[v]`, edge ids kept.
    fn renamed(g: &CsrGraph, new_id: &[VertexId]) -> CsrGraph {
        let id = |v: VertexId| new_id[v as usize];
        let edges: Vec<_> = g.edges().iter().map(|e| (id(e.u), id(e.v), e.w)).collect();
        CsrGraph::from_edges(g.n(), &edges)
    }

    #[test]
    fn retained_first_numbering_is_a_fixed_point() {
        // theta, a pure cycle, and a hub with a lollipop and a long chain.
        let lollipop = CsrGraph::from_edges(
            8,
            &[
                (3, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 0, 1),
                (3, 4, 2),
                (4, 5, 3),
                (5, 6, 4),
                (6, 7, 5),
                (7, 0, 1),
                (0, 5, 9),
            ],
        );
        let cycle = CsrGraph::from_edges(4, &[(2, 1, 1), (1, 0, 1), (0, 3, 1), (3, 2, 1)]);
        for g in [theta(), cycle, lollipop] {
            let r = reduce_graph(g.view()).unwrap();
            let k = r.retained.len();
            let (old_chains, old_removed) = (r.chains.clone(), r.removed.clone());
            let (mut r, mut new_id) = (r, vec![0; g.n()]);
            r.renumber_retained_first(&mut new_id);
            assert_eq!(r.retained, (0..k as u32).collect::<Vec<_>>());
            assert!(r.to_reduced[..k]
                .iter()
                .enumerate()
                .all(|(v, &l)| l == v as u32));
            assert!(r.to_reduced[k..].iter().all(|&l| l == u32::MAX));
            let interiors: Vec<u32> = r.chains.iter().flat_map(|c| c.interior.clone()).collect();
            assert_eq!(interiors, (k as u32..g.n() as u32).collect::<Vec<_>>());
            for (old, new) in old_chains.iter().zip(&r.chains) {
                assert_eq!(old.edges, new.edges);
                assert_eq!(
                    (new_id[old.left as usize], new_id[old.right as usize]),
                    (new.left, new.right)
                );
            }
            for (v, s) in old_removed.iter().enumerate() {
                assert_eq!(
                    s.map(|s| (s.chain, s.pos)),
                    r.removed[new_id[v] as usize].map(|s| (s.chain, s.pos))
                );
            }
            // A cold reduction of the renumbered graph is the renumbered
            // contraction.
            let fresh = reduce_graph(renamed(&g, &new_id).view()).unwrap();
            assert_eq!(fresh.retained, r.retained);
            assert_eq!(fresh.to_reduced, r.to_reduced);
            assert_eq!(fresh.removed, r.removed);
            assert_eq!(fresh.edge_origin, r.edge_origin);
            assert_eq!(fresh.reduced.edges(), r.reduced.edges());
            for (a, b) in fresh.chains.iter().zip(&r.chains) {
                assert_eq!(
                    (a.left, a.right, &a.edges, &a.interior),
                    (b.left, b.right, &b.edges, &b.interior)
                );
            }
        }
    }

    #[test]
    fn along_chain_from_reads_every_interior_vertex() {
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 4, 4),
                (0, 5, 1),
                (0, 6, 1),
                (4, 5, 1),
                (4, 6, 1),
            ],
        );
        let r = reduce_graph(g.view()).unwrap();
        let chain = r.removed_info(1).unwrap().chain;
        let interior = r.chains[chain as usize].interior.clone();
        for &x in &interior {
            let ix = r.removed_info(x).unwrap();
            let want: Vec<Weight> = interior
                .iter()
                .map(|&y| ix.along_chain(&r.removed_info(y).unwrap()))
                .collect();
            assert_eq!(r.along_chain_from(x).collect::<Vec<_>>(), want);
        }
        assert_eq!(r.along_chain_from(1).collect::<Vec<_>>(), [0, 2, 5]);
    }

    #[test]
    fn reweighted_noop_is_bit_identical() {
        let g = theta();
        let r = reduce_graph(g.view()).unwrap();
        let same = r.reweighted(g.view());
        assert_eq!(same.reduced.edges(), r.reduced.edges());
        assert!(same.shares_topology(&r));
    }
}
