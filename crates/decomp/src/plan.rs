//! The shared decomposition plan: every pipeline's front half, built once.
//!
//! The paper's design is "decompose once, then solve many small problems":
//! biconnected split → block-cut tree → per-block ear reduction feeds both
//! the APSP oracle (§2) and the MCB pipeline (§3). A [`DecompPlan`] owns
//! that whole front half as one reusable artifact:
//!
//! * the [`BlockCutTree`] (which also fixes articulation points and
//!   per-vertex home blocks) with its query router;
//! * one [`BlockPlan`] per biconnected component, holding its id maps
//!   back to the parent graph and — for simple blocks — the degree-2 chain
//!   reduction ([`ReducedGraph`] with all its `RemovedInfo` bookkeeping);
//! * one shared [`CsrArena`] holding every block subgraph, served as
//!   zero-copy [`CsrView`] windows by [`DecompPlan::block_graph`];
//! * the edge→block assignment and the bridge list.
//!
//! Consumers (`ear-apsp`'s `build_oracle_with_plan` at every method,
//! `ear-mcb`'s `mcb_with_plan`, the CLI, `ear-workloads`' `GraphStats`)
//! take a plan instead of recomputing the split themselves; a server-style
//! caller wraps the plan in an `Arc` and amortises the decomposition across
//! APSP, MCB and statistics workloads over the same graph.
//!
//! # Topology / customization layering
//!
//! Internally the plan is an explicit two-layer artifact, the CCH-style
//! split the paper's "disassemble once, reassemble per metric" pipeline
//! implies:
//!
//! * the **topology** — everything that depends only on the graph's
//!   *structure*: the block-cut tree and its router, the edge→block
//!   table, bridges and arena spans. Shared via [`Arc`] by every
//!   customization of the same graph shape.
//! * the **customization** — everything that depends on the current edge
//!   *weights*: the chain-contracted reductions, the shared arena's weight
//!   layer, and the weight vector itself.
//!
//! [`DecompPlan::recustomized`] recomputes only the second layer for a
//! new weight vector — parallel over the **dirty blocks** (those
//! containing at least one changed edge, read off the edge→block table) —
//! and pairs it with the shared topology. The result is bit-identical to a
//! cold [`DecompPlan::build`] of the reweighted graph (the differential
//! suite holds it to that), at the cost of one weight sweep instead of a
//! re-decomposition.
//!
//! # Id-translation conventions
//!
//! Block subgraphs use compact local vertex ids `0..block.n()`. A simple
//! block is numbered **retained first**: its `k` chain anchors (degree ≠ 2
//! in the block, plus a pure cycle's honorary anchor) take ids `0..k` in
//! the reduction's retained order, and its removed degree-2 vertices
//! follow from `k`, chain by chain, each chain's interior in walk order.
//! So [`ReducedGraph`]'s `to_reduced` is the identity on `0..k`, and a
//! block's reduced table `S^r` is the leading `k × k` submatrix of its
//! full table. Retention depends on the topology alone, so the numbering
//! is fixed once by [`DecompPlan::build`] — it renumbers the reduction it
//! just computed, without a second chain walk — and every
//! recustomization shares it. A non-simple block keeps the numbering of a
//! standalone `edge_subgraph` extraction; either way edge ids and edge
//! order are the extraction's. The plan settles the translation in one
//! place, and every map is written in the final numbering:
//!
//! * [`BlockPlan::parent`] / [`BlockPlan::to_parent_vertex`] map local →
//!   parent; [`BlockPlan::to_parent_edge`] maps local edge `i` of the block
//!   subgraph to its parent edge id.
//! * [`DecompPlan::local`] maps (block, parent vertex) → local id, `None`
//!   when the vertex is not in that block. Every vertex has a *home* block
//!   (the block-cut tree's `vertex_block`); vertices appearing in several
//!   blocks (articulation points, and self-loop copies of a vertex) are
//!   resolved through a small sorted per-block side table.
//! * The block-cut tree's endpoints and gateways, and the arena windows,
//!   carry the same local ids.
//!
//! Reduction is eager and runs per block in parallel
//! ([`ear_graph::par_map`]); blocks that are not simple (parallel edges or
//! self-loops — only possible for multigraph inputs) carry
//! `reduction: None`, and
//! [`DecompPlan::reduction`] is the single guard every pipeline routes
//! through (see [`crate::reduce::NotSimpleError`]).
//!
//! ```
//! use ear_decomp::plan::DecompPlan;
//! use ear_graph::CsrGraph;
//! // Two triangles sharing vertex 2 (an articulation point).
//! let g = CsrGraph::from_edges(5, &[
//!     (0, 1, 1), (1, 2, 2), (2, 0, 3),
//!     (2, 3, 4), (3, 4, 5), (4, 2, 6),
//! ]);
//! let plan = DecompPlan::build(&g);
//! assert_eq!(plan.n_blocks(), 2);
//! assert_eq!(plan.bct().ap_count(), 1);
//! // Vertex 2 is in both blocks; vertex 0 only in its own.
//! assert!(plan.local(0, 2).is_some() && plan.local(1, 2).is_some());
//! assert_eq!((0..2).filter(|&b| plan.local(b, 0).is_some()).count(), 1);
//! // Reweight edge 0: only the first triangle is recustomized.
//! let mut w: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
//! w[0] = 100;
//! let fresh = plan.recustomized(&w);
//! assert_eq!(fresh.dirty_blocks().len(), 1);
//! ```

use std::sync::Arc;

use crate::bcc::{biconnected_components, Bcc};
use crate::block_cut::BlockCutTree;
use crate::reduce::{reduce_graph, ReducedGraph};
use ear_graph::{
    edge_subgraph_into_arena, CsrArena, CsrGraph, CsrSpan, CsrView, EdgeId, SubgraphScratch,
    VertexId, Weight, INF,
};

/// One biconnected component of the plan: its id maps and (for simple
/// blocks) its degree-2 chain reduction. The block subgraph itself lives in
/// the plan's shared arena ([`DecompPlan::block_graph`]).
///
/// The id maps and the side table are weight-independent and sit behind
/// [`Arc`], so a recustomization's untouched (and even touched) blocks
/// share them with the original plan; only `reduction` carries
/// weight-dependent state.
#[derive(Clone, Debug)]
pub struct BlockPlan {
    /// Vertex count of the block.
    n: usize,
    /// Edge count of the block.
    m: usize,
    /// `local → parent` vertex ids (topology, shared across
    /// customizations).
    pub to_parent_vertex: Arc<Vec<VertexId>>,
    /// `local edge → parent edge` ids (topology, shared across
    /// customizations).
    pub to_parent_edge: Arc<Vec<EdgeId>>,
    /// The chain contraction of the block subgraph, present exactly when
    /// the block is simple — the one flag all reduction guards use.
    pub reduction: Option<ReducedGraph>,
    /// Members of this block whose home block is a different one
    /// (articulation points, plus self-loop copies of a vertex), as sorted
    /// `(parent id, local id)` pairs — the side table behind
    /// [`DecompPlan::local`].
    shared: Arc<Vec<(VertexId, VertexId)>>,
}

impl BlockPlan {
    /// Vertices in the block.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edges in the block.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Vertices left after chain reduction (`nʳ`): the reduced graph's
    /// size for a simple block, `n` for a block that is not reduced. The
    /// side of the block's table at the reduced storage level (Table 1's
    /// `a² + Σ (nᵢʳ)²`).
    pub fn reduced_n(&self) -> usize {
        self.reduction.as_ref().map_or(self.n, |r| r.reduced.n())
    }

    /// Parent id of a local vertex.
    #[inline]
    pub fn parent(&self, local: VertexId) -> VertexId {
        self.to_parent_vertex[local as usize]
    }
}

/// The weight-independent layer of a [`DecompPlan`]: BCC partition,
/// block-cut tree and router, edge→block table, bridges and arena spans.
/// Never recomputed by [`DecompPlan::recustomized`]; shared via [`Arc`] by
/// every customization of the same graph structure.
#[derive(Clone, Debug)]
struct PlanTopology {
    n: usize,
    m: usize,
    bct: BlockCutTree,
    /// Block id of every edge — also the dirty-block map of a
    /// recustomization.
    edge_comp: Vec<u32>,
    /// Bridge edges (single-edge non-loop blocks).
    bridges: Vec<EdgeId>,
    /// One arena window per block, in block-id order.
    spans: Vec<CsrSpan>,
}

/// The weight-dependent layer of a [`DecompPlan`]: per-block reductions
/// under one specific weight vector, plus the shared arena's weight layer.
/// Produced by [`DecompPlan::build`] (cold) or
/// [`DecompPlan::recustomized`] (warm, dirty blocks only).
#[derive(Clone, Debug)]
struct CustomizedPlan {
    blocks: Vec<BlockPlan>,
    /// Shared CSR storage for every block. Topology arrays are shared
    /// across customizations; the weight layer belongs to this
    /// customization.
    arena: CsrArena,
    /// The full-graph weight vector this customization was built for —
    /// the baseline [`DecompPlan::recustomized`] diffs against.
    edge_weights: Vec<Weight>,
    /// Blocks whose weight layer was (re)computed by this customization:
    /// every block for a cold build, exactly the blocks containing a
    /// changed edge for a recustomization. Sorted ascending.
    dirty: Vec<u32>,
    /// 0 for a cold build, parent + 1 for each recustomization.
    generation: u64,
}

impl PlanTopology {
    /// One pass over a weight diff through the edge→block table: per
    /// block, whether it holds an edge whose weight differs between `old`
    /// and `new`, plus the number of changed edges.
    fn changed_blocks(&self, old: &[Weight], new: &[Weight]) -> (Vec<bool>, u64) {
        let mut flag = vec![false; self.bct.n_blocks];
        let mut changed = 0u64;
        for ((&o, &w), &b) in old.iter().zip(new).zip(&self.edge_comp) {
            if o != w {
                changed += 1;
                flag[b as usize] = true;
            }
        }
        (flag, changed)
    }
}

/// The ids of the set flags, ascending.
fn flagged(flags: &[bool]) -> Vec<u32> {
    flags
        .iter()
        .enumerate()
        .filter_map(|(b, &d)| d.then_some(b as u32))
        .collect()
}

/// The full decomposition front half of both pipelines, built once from a
/// graph (see the [module docs](self) for what it owns, the id-map
/// conventions, and the topology/customization layering).
#[derive(Clone, Debug)]
pub struct DecompPlan {
    topo: Arc<PlanTopology>,
    custom: CustomizedPlan,
}

impl DecompPlan {
    /// Builds the plan: biconnected components, per-block subgraph
    /// extraction (scratch-reusing, O(n + m) total), parallel per-block
    /// chain reduction of every simple block, and the block-cut tree.
    ///
    /// All blocks land in one shared [`CsrArena`] and are served as
    /// zero-copy [`CsrView`] windows with the edge order of a standalone
    /// `edge_subgraph` extraction (a standalone graph is a one-span arena,
    /// so both come from one construction). A non-simple block keeps the
    /// extraction's local ids; a simple one is renumbered retained first
    /// (see the [module docs](self#id-translation-conventions)), which
    /// moves vertex ids only.
    pub fn build(g: &CsrGraph) -> DecompPlan {
        let _span = ear_obs::span_with("decomp.plan", g.n() as u64);
        let bcc = {
            let _s = ear_obs::span("decomp.bcc");
            biconnected_components(g)
        };
        let Bcc {
            comps,
            edge_comp,
            bridges,
            is_articulation,
        } = bcc;

        // Extract every block with one shared scratch into the shared
        // arena (zero per-block adjacency allocations); the component edge
        // lists move into the blocks without copying.
        let extract_span = ear_obs::span_with("decomp.extract", comps.len() as u64);
        let mut scratch = SubgraphScratch::new();
        let mut arena = CsrArena::new();
        let mut spans: Vec<CsrSpan> = Vec::with_capacity(comps.len());
        // (parent vertex map, parent edge map) per block.
        let mut extracted: Vec<(Vec<VertexId>, Vec<EdgeId>)> = Vec::with_capacity(comps.len());
        for comp in comps {
            let (span, map) = edge_subgraph_into_arena(g, comp, &mut scratch, &mut arena);
            extracted.push((map.to_parent_vertex, map.to_parent_edge));
            spans.push(span);
        }
        drop(extract_span);

        // Chain-contract all simple blocks, in parallel across blocks, then
        // renumber each contracted block retained first. The arena windows
        // and vertex maps take the new numbering before the block-cut tree
        // reads them, so every local id the plan hands out is final.
        let reductions: Vec<Option<ReducedGraph>> = {
            let _s = ear_obs::span("decomp.reduce");
            let mut reductions = ear_graph::par_map(&spans, |span| {
                let _b = ear_obs::span_with("decomp.reduce.block", span.n as u64);
                reduce_graph(arena.view(span)).ok()
            });
            // Every block's new ids, back to back in block order; a block
            // that is not reduced keeps its ids.
            let mut new_ids: Vec<VertexId> = spans.iter().flat_map(|s| 0..s.n).collect();
            let (mut rest, mut parent) = (&mut new_ids[..], Vec::new());
            for (((to_parent_vertex, _), r), span) in
                extracted.iter_mut().zip(&mut reductions).zip(&spans)
            {
                let (ids, tail) = std::mem::take(&mut rest).split_at_mut(span.n as usize);
                rest = tail;
                let Some(r) = r else { continue };
                r.renumber_retained_first(ids);
                parent.clone_from(to_parent_vertex);
                for (&p, &id) in parent.iter().zip(&*ids) {
                    to_parent_vertex[id as usize] = p;
                }
            }
            arena.relabel(&spans, &new_ids);
            reductions
        };
        let bct = {
            let _s = ear_obs::span("decomp.bct");
            BlockCutTree::new(&is_articulation, extracted.len(), |b| &extracted[b].0)
        };

        let blocks: Vec<BlockPlan> = extracted
            .into_iter()
            .zip(reductions)
            .zip(&spans)
            .enumerate()
            .map(
                |(b, (((to_parent_vertex, to_parent_edge), reduction), span))| {
                    let mut shared = Vec::new();
                    for (l, &p) in to_parent_vertex.iter().enumerate() {
                        if bct.vertex_block[p as usize] != b as u32 {
                            shared.push((p, l as u32));
                        }
                    }
                    shared.sort_unstable();
                    BlockPlan {
                        n: span.n as usize,
                        m: span.m as usize,
                        to_parent_vertex: Arc::new(to_parent_vertex),
                        to_parent_edge: Arc::new(to_parent_edge),
                        reduction,
                        shared: Arc::new(shared),
                    }
                },
            )
            .collect();

        if ear_obs::is_enabled() {
            ear_obs::counter_add("decomp.plans", 1);
            ear_obs::counter_add("decomp.blocks", blocks.len() as u64);
            ear_obs::counter_add("decomp.bridges", bridges.len() as u64);
            let removed: u64 = blocks
                .iter()
                .filter_map(|b| b.reduction.as_ref())
                .map(|r| r.removed_count() as u64)
                .sum();
            ear_obs::counter_add("decomp.removed_vertices", removed);
            // Bytes of shared arena storage backing every block.
            ear_obs::counter_add("decomp.plan.arena_bytes", arena.used_bytes() as u64);
        }

        let dirty: Vec<u32> = (0..blocks.len() as u32).collect();
        DecompPlan {
            topo: Arc::new(PlanTopology {
                n: g.n(),
                m: g.m(),
                bct,
                edge_comp,
                bridges,
                spans,
            }),
            custom: CustomizedPlan {
                blocks,
                arena,
                edge_weights: g.edges().iter().map(|e| e.w).collect(),
                dirty,
                generation: 0,
            },
        }
    }

    /// A full plan for `new_weights` (indexed by parent edge id) whose
    /// topology layer is the same [`Arc`] as `self`'s
    /// ([`DecompPlan::shares_topology`] holds).
    ///
    /// Recomputes only the **weight layer**: the shared arena's weight
    /// arrays, and — for each *dirty* block, in parallel — its chain
    /// reduction's weight layer, reusing the recorded chains instead of
    /// re-walking degree-2 paths. No BCC split, block-cut tree, chain walk
    /// or extraction is repeated, and clean blocks' state is shared with
    /// `self` (the id maps and every topology array already sit behind
    /// `Arc`s).
    ///
    /// The dirty-block set is read off the edge→block table: exactly the
    /// blocks containing an edge whose weight differs from this plan's
    /// current weights.
    ///
    /// The result is bit-identical to a cold [`DecompPlan::build`] of the
    /// reweighted graph.
    ///
    /// # Panics
    /// Panics if `new_weights.len() != self.m()` or a weight exceeds
    /// [`INF`] (see [`CsrGraph::from_edge_records`]).
    pub fn recustomized(&self, new_weights: &[Weight]) -> DecompPlan {
        assert_eq!(
            new_weights.len(),
            self.m(),
            "one weight per parent edge is required"
        );
        if let Some(w) = new_weights.iter().find(|&&w| w > INF) {
            panic!("edge weight {w} exceeds INF");
        }
        let _span = ear_obs::span_with("decomp.recustomize", self.m() as u64);

        let (dirty_flag, changed_edges) = {
            let _s = ear_obs::span("decomp.recustomize.dirty");
            self.topo
                .changed_blocks(&self.custom.edge_weights, new_weights)
        };
        let dirty = flagged(&dirty_flag);

        // Swap the shared arena's weight layer first (the block views below
        // window it). The arena weight stream is indexed by arena edge
        // record; each span's records map to parent edges through the
        // block's edge map.
        let arena = {
            let _s = ear_obs::span("decomp.recustomize.arena");
            let mut arena_w = vec![0 as Weight; self.custom.arena.edges_len()];
            for (s, bp) in self.topo.spans.iter().zip(&self.custom.blocks) {
                for (i, &pe) in bp.to_parent_edge.iter().enumerate() {
                    arena_w[s.edge as usize + i] = new_weights[pe as usize];
                }
            }
            self.custom.arena.reweighted(&self.topo.spans, &arena_w)
        };

        // Per-block weight layer: dirty blocks get their chain reduction
        // resummed, clean blocks are shared.
        let blocks = {
            let _s = ear_obs::span("decomp.recustomize.blocks");
            let ids: Vec<usize> = (0..self.custom.blocks.len()).collect();
            ear_graph::par_map(&ids, |&b| {
                let bp = &self.custom.blocks[b];
                if !dirty_flag[b] {
                    return bp.clone();
                }
                let _b = ear_obs::span_with("decomp.recustomize.block", bp.n as u64);
                let view = arena.view(&self.topo.spans[b]);
                BlockPlan {
                    n: bp.n,
                    m: bp.m,
                    to_parent_vertex: Arc::clone(&bp.to_parent_vertex),
                    to_parent_edge: Arc::clone(&bp.to_parent_edge),
                    reduction: bp.reduction.as_ref().map(|r| r.reweighted(view)),
                    shared: Arc::clone(&bp.shared),
                }
            })
        };

        if ear_obs::is_enabled() {
            ear_obs::counter_add("decomp.recustomizes", 1);
            ear_obs::counter_add("decomp.recustomize.changed_edges", changed_edges);
            ear_obs::counter_add("decomp.recustomize.dirty_blocks", dirty.len() as u64);
        }

        DecompPlan {
            topo: Arc::clone(&self.topo),
            custom: CustomizedPlan {
                blocks,
                arena,
                edge_weights: new_weights.to_vec(),
                dirty,
                generation: self.custom.generation + 1,
            },
        }
    }

    /// True when `other` shares this plan's topology layer (one is a
    /// `recustomized` descendant of the other). O(1).
    pub fn shares_topology(&self, other: &DecompPlan) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// Blocks whose weight layer the current customization (re)computed:
    /// all blocks for a cold build, exactly the blocks containing a changed
    /// edge after [`DecompPlan::recustomized`]. Sorted ascending.
    pub fn dirty_blocks(&self) -> &[u32] {
        &self.custom.dirty
    }

    /// Blocks holding an edge whose weight differs between `base` and
    /// `self`, sorted ascending: the blocks a consumer built for `base`
    /// must recompute to serve `self`. Equals [`Self::dirty_blocks`] when
    /// `self` is `base.recustomized(..)`, and stays exact for any other
    /// pair sharing a topology (a skipped generation, a sibling branch).
    ///
    /// # Panics
    /// Panics unless `base` shares this plan's topology.
    pub fn dirty_blocks_since(&self, base: &DecompPlan) -> Vec<u32> {
        assert!(
            self.shares_topology(base),
            "dirty_blocks_since requires a plan sharing this topology"
        );
        let (flags, _) = self
            .topo
            .changed_blocks(base.edge_weights(), self.edge_weights());
        flagged(&flags)
    }

    /// Customization generation: 0 for a cold build, +1 per recustomize.
    pub fn generation(&self) -> u64 {
        self.custom.generation
    }

    /// The full-graph weight vector the current customization was built
    /// for, indexed by parent edge id.
    pub fn edge_weights(&self) -> &[Weight] {
        &self.custom.edge_weights
    }

    /// Block `b`'s subgraph as a zero-copy [`CsrView`] window of the
    /// shared arena — the access path every solver uses.
    pub fn block_graph(&self, b: u32) -> CsrView<'_> {
        self.custom.arena.view(&self.topo.spans[b as usize])
    }

    /// Bytes of shared arena storage backing the plan's blocks.
    pub fn arena_bytes(&self) -> usize {
        self.custom.arena.used_bytes()
    }

    /// The arena spans backing the plan's blocks, one per block in
    /// block-id order. Exposed so invariant checkers can verify the spans
    /// tile the arena exactly.
    pub fn spans(&self) -> &[CsrSpan] {
        &self.topo.spans
    }

    /// The shared storage arena behind the plan's blocks.
    pub fn arena(&self) -> &CsrArena {
        &self.custom.arena
    }

    /// Vertices of the decomposed graph.
    pub fn n(&self) -> usize {
        self.topo.n
    }

    /// Edges of the decomposed graph.
    pub fn m(&self) -> usize {
        self.topo.m
    }

    /// Number of biconnected components.
    pub fn n_blocks(&self) -> usize {
        self.custom.blocks.len()
    }

    /// All blocks, indexed by block id.
    pub fn blocks(&self) -> &[BlockPlan] {
        &self.custom.blocks
    }

    /// One block.
    pub fn block(&self, b: u32) -> &BlockPlan {
        &self.custom.blocks[b as usize]
    }

    /// The block-cut tree (articulation points, home blocks, query
    /// routing).
    pub fn bct(&self) -> &BlockCutTree {
        &self.topo.bct
    }

    /// Block id of every edge.
    pub fn edge_comp(&self) -> &[u32] {
        &self.topo.edge_comp
    }

    /// Bridge edges.
    pub fn bridges(&self) -> &[EdgeId] {
        &self.topo.bridges
    }

    /// Whether block `b`'s subgraph is simple — the single guard behind
    /// every "can this block be ear-reduced?" decision.
    pub fn is_simple(&self, b: u32) -> bool {
        self.custom.blocks[b as usize].reduction.is_some()
    }

    /// Block `b`'s chain reduction, `Some` exactly when the block is simple.
    pub fn reduction(&self, b: u32) -> Option<&ReducedGraph> {
        self.custom.blocks[b as usize].reduction.as_ref()
    }

    /// Local id of parent vertex `v` inside block `b`, `None` when `v` is
    /// not a member of that block.
    pub fn local(&self, b: u32, v: VertexId) -> Option<VertexId> {
        if self.topo.bct.vertex_block[v as usize] == b {
            return Some(self.topo.bct.endpoint(v).local);
        }
        let shared = &self.custom.blocks[b as usize].shared;
        shared
            .binary_search_by_key(&v, |&(p, _)| p)
            .ok()
            .map(|i| shared[i].1)
    }

    /// Total vertices removed by chain reduction across all (simple) blocks.
    pub fn removed_vertices(&self) -> usize {
        self.custom
            .blocks
            .iter()
            .filter_map(|bp| bp.reduction.as_ref())
            .map(|r| r.removed_count())
            .sum()
    }

    /// Edge count of the largest block.
    pub fn largest_block_edges(&self) -> usize {
        self.custom
            .blocks
            .iter()
            .map(|bp| bp.m())
            .max()
            .unwrap_or(0)
    }

    /// Block ids ordered biggest-first by edge count (ties by ascending
    /// block id) — the paper's workunit order, shared by the MCB pipeline
    /// and the CLI.
    pub fn blocks_by_size_desc(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.custom.blocks.len()).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(self.custom.blocks[b].m()));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// triangle(0,1,2) — AP 2 — square(2,3,4,5 with chord-free chain) —
    /// bridge 5-6.
    fn mixed() -> CsrGraph {
        CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 0, 3),
                (2, 3, 4),
                (3, 4, 1),
                (4, 5, 2),
                (5, 2, 3),
                (5, 6, 9),
            ],
        )
    }

    #[test]
    fn blocks_partition_edges() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        let mut seen = vec![0u32; g.m()];
        for (b, bp) in plan.blocks().iter().enumerate() {
            for &e in bp.to_parent_edge.iter() {
                seen[e as usize] += 1;
                assert_eq!(plan.edge_comp()[e as usize], b as u32);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn local_parent_roundtrip_covers_every_member() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        for (b, bp) in plan.blocks().iter().enumerate() {
            for l in 0..bp.n() as u32 {
                let p = bp.parent(l);
                assert_eq!(plan.local(b as u32, p), Some(l), "block {b} vertex {p}");
            }
        }
    }

    #[test]
    fn non_members_resolve_to_none() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        for b in 0..plan.n_blocks() as u32 {
            let bp = plan.block(b);
            for v in 0..g.n() as u32 {
                let member = bp.to_parent_vertex.contains(&v);
                assert_eq!(plan.local(b, v).is_some(), member, "block {b} vertex {v}");
            }
        }
    }

    #[test]
    fn reductions_present_exactly_for_simple_blocks() {
        // Multigraph: parallel pair plus a triangle.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 1, 1)]);
        let plan = DecompPlan::build(&g);
        for b in 0..plan.n_blocks() as u32 {
            assert_eq!(plan.is_simple(b), plan.block_graph(b).is_simple());
            assert_eq!(plan.reduction(b).is_some(), plan.is_simple(b));
        }
        assert!((0..plan.n_blocks() as u32).any(|b| !plan.is_simple(b)));
    }

    #[test]
    fn reduction_matches_direct_reduce_graph() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        for b in 0..plan.n_blocks() as u32 {
            let direct = reduce_graph(plan.block_graph(b)).unwrap();
            let r = plan.block(b).reduction.as_ref().unwrap();
            assert_eq!(r.retained, direct.retained);
            assert_eq!(r.reduced.edges(), direct.reduced.edges());
            assert_eq!(r.chains.len(), direct.chains.len());
        }
    }

    #[test]
    fn block_views_match_standalone_extraction() {
        for g in [
            mixed(),
            CsrGraph::from_edges(4, &[(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 1, 1)]),
            CsrGraph::from_edges(2, &[(0, 0, 1), (0, 1, 1)]),
            CsrGraph::from_edges(0, &[]),
        ] {
            let plan = DecompPlan::build(&g);
            assert_eq!(plan.spans().len(), plan.n_blocks());
            assert_eq!(plan.arena_bytes() > 0, plan.n_blocks() > 0);
            for b in 0..plan.n_blocks() as u32 {
                let bp = plan.block(b);
                let (sub, map) = ear_graph::edge_subgraph(&g, &bp.to_parent_edge);
                // Extraction id → plan id, through the two parent maps.
                let pi: Vec<u32> = (0..sub.n() as u32)
                    .map(|s| plan.local(b, map.parent(s)).unwrap())
                    .collect();
                if bp.reduction.is_none() {
                    assert!(pi.iter().enumerate().all(|(s, &l)| s == l as usize));
                }
                let view = plan.block_graph(b);
                assert_eq!((view.n(), view.m()), (bp.n(), bp.m()));
                for (e, f) in view.edges().iter().zip(sub.edges()) {
                    let want = (pi[f.u as usize], pi[f.v as usize], f.w);
                    assert_eq!((e.u, e.v, e.w), want);
                }
                for u in 0..sub.n() as u32 {
                    let (adj, w) = sub.view().incidences(u);
                    let (vadj, vw) = view.incidences(pi[u as usize]);
                    let renamed: Vec<_> = adj.iter().map(|&(y, e)| (pi[y as usize], e)).collect();
                    assert_eq!((vadj, vw), (&renamed[..], w));
                }
                assert_eq!(bp.reduction.is_some(), sub.is_simple());
            }
        }
    }

    #[test]
    fn simple_blocks_are_numbered_retained_first() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        for b in 0..plan.n_blocks() as u32 {
            let r = plan.reduction(b).unwrap();
            let k = r.reduced.n();
            let ids: Vec<u32> = (0..plan.block(b).n() as u32).collect();
            assert_eq!(r.retained, ids[..k]);
            assert!(r.to_reduced[..k].iter().zip(&ids).all(|(a, b)| a == b));
            assert!(r.to_reduced[k..].iter().all(|&l| l == u32::MAX));
            let interiors: Vec<u32> = r.chains.iter().flat_map(|c| c.interior.clone()).collect();
            assert_eq!(interiors, ids[k..]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds INF")]
    fn recustomize_rejects_weight_above_inf() {
        let g = mixed();
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        w[0] = INF + 1;
        DecompPlan::build(&g).recustomized(&w);
    }

    #[test]
    fn size_order_is_stable_biggest_first() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        let order = plan.blocks_by_size_desc();
        for w in order.windows(2) {
            let (a, b) = (plan.block(w[0] as u32).m(), plan.block(w[1] as u32).m());
            assert!(a > b || (a == b && w[0] < w[1]));
        }
    }

    #[test]
    fn self_loop_copy_is_reachable_in_both_blocks() {
        // Vertex 0 carries a self-loop and a bridge: two blocks, no APs.
        let g = CsrGraph::from_edges(2, &[(0, 0, 1), (0, 1, 1)]);
        let plan = DecompPlan::build(&g);
        assert_eq!(plan.n_blocks(), 2);
        assert_eq!(plan.bct().ap_count(), 0);
        for b in 0..2u32 {
            assert!(
                plan.local(b, 0).is_some(),
                "vertex 0 missing from block {b}"
            );
        }
    }

    #[test]
    fn empty_graph_builds() {
        let plan = DecompPlan::build(&CsrGraph::from_edges(0, &[]));
        assert_eq!(plan.n_blocks(), 0);
        assert_eq!(plan.removed_vertices(), 0);
        assert_eq!(plan.largest_block_edges(), 0);
    }

    fn assert_same_customization(a: &DecompPlan, b: &DecompPlan) {
        assert_eq!(a.n_blocks(), b.n_blocks());
        assert_eq!(a.edge_weights(), b.edge_weights());
        for blk in 0..a.n_blocks() as u32 {
            let (ga, gb) = (a.block_graph(blk), b.block_graph(blk));
            assert_eq!(ga.edges(), gb.edges(), "block {blk} edges");
            for u in 0..ga.n() as u32 {
                assert_eq!(ga.incidences(u), gb.incidences(u), "block {blk} vertex {u}");
            }
            match (a.reduction(blk), b.reduction(blk)) {
                (None, None) => {}
                (Some(ra), Some(rb)) => {
                    assert_eq!(ra.reduced.edges(), rb.reduced.edges(), "block {blk}");
                    for x in 0..ga.n() as u32 {
                        let (ia, ib) = (ra.removed_info(x), rb.removed_info(x));
                        assert_eq!(ia.is_some(), ib.is_some());
                        if let (Some(ia), Some(ib)) = (ia, ib) {
                            assert_eq!((ia.w_left, ia.w_right), (ib.w_left, ib.w_right));
                        }
                    }
                }
                _ => panic!("reduction presence differs on block {blk}"),
            }
        }
    }

    #[test]
    fn recustomized_matches_cold_build() {
        let g = mixed();
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        w[1] = 20; // triangle block
        w[7] = 90; // bridge block
        let plan = DecompPlan::build(&g);
        let warm = plan.recustomized(&w);
        let cold = DecompPlan::build(&g.reweighted(&w));
        assert_same_customization(&warm, &cold);
        assert!(plan.shares_topology(&warm));
        assert!(!plan.shares_topology(&cold));
        assert_eq!(warm.generation(), 1);
        // Dirty set: exactly the blocks holding edges 1 and 7.
        let want: Vec<u32> = {
            let mut v = vec![plan.edge_comp()[1], plan.edge_comp()[7]];
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(warm.dirty_blocks(), &want[..]);
        assert_eq!(warm.dirty_blocks_since(&plan), want);
        // Two hops back to the original weights: the second hop's own
        // dirty set is non-empty, but nothing differs from `plan`.
        let back = warm.recustomized(&g.edges().iter().map(|e| e.w).collect::<Vec<_>>());
        assert_eq!(back.dirty_blocks(), &want[..]);
        assert!(back.dirty_blocks_since(&plan).is_empty());
        assert_eq!(back.dirty_blocks_since(&warm), want);
    }

    #[test]
    fn recustomize_noop_marks_nothing_dirty() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        let w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        let warm = plan.recustomized(&w);
        assert!(warm.dirty_blocks().is_empty());
        assert_same_customization(&warm, &plan);
    }

    #[test]
    fn cold_build_marks_every_block_dirty() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        let all: Vec<u32> = (0..plan.n_blocks() as u32).collect();
        assert_eq!(plan.dirty_blocks(), &all[..]);
        assert_eq!(plan.generation(), 0);
    }

    #[test]
    fn recustomize_shares_block_topology_arcs() {
        let g = mixed();
        let plan = DecompPlan::build(&g);
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        for x in w.iter_mut() {
            *x += 1;
        }
        let warm = plan.recustomized(&w);
        assert!(plan.arena().shares_topology(warm.arena()));
        for (a, b) in plan.blocks().iter().zip(warm.blocks()) {
            assert!(Arc::ptr_eq(&a.to_parent_vertex, &b.to_parent_vertex));
            assert!(Arc::ptr_eq(&a.to_parent_edge, &b.to_parent_edge));
            match (&a.reduction, &b.reduction) {
                (Some(ra), Some(rb)) => assert!(ra.shares_topology(rb)),
                (None, None) => {}
                _ => panic!("reduction presence changed"),
            }
        }
    }
}
