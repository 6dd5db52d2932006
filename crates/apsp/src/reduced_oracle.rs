//! The memory-frugal distance oracle: reduced tables + per-query extension.
//!
//! [`crate::oracle::DistanceOracle`] materialises full per-block tables
//! (`a² + Σ nᵢ²` entries — the formula of paper §2.3). On chain-heavy
//! graphs that formula saves little: with 99.9% of edges in one block,
//! `Σ nᵢ² ≈ n²` no matter how many degree-2 vertices contract away. The
//! paper's published "Our's Memory" figures for exactly those graphs
//! (as-22july06, Wordnet3, soc-sign-epinions) are only reachable by
//! storing **reduced** tables — `a² + Σ (nᵢʳ)²` — and applying the §2.1.3
//! closed-form extension *per query* instead of materialising it. This
//! type is that storage level: every distance involving a removed vertex
//! costs a constant number of reduced-table lookups at query time.
//!
//! Everything else is the full oracle's machinery: the tables sit in a
//! [`crate::DistArena`] laid out with `nᵢʳ`-sided blocks, phase II writes
//! into it directly (there is no phase III), and the AP table, the
//! block-cut-tree router and the incremental refresh are the same code
//! paths. Only the within-block read differs: the §2.1.3 minima over the
//! block's reduced span instead of a direct lookup.

use std::sync::Arc;

use ear_decomp::plan::DecompPlan;
use ear_decomp::reduce::{ReducedGraph, RemovedInfo};
use ear_graph::{dist_add, CsrGraph, VertexId, Weight};
use ear_hetero::{ExecutionReport, HeteroExecutor};

use crate::arena::DistArena;
use crate::matrix::DistMatrix;
use crate::oracle::{Level, Store};

/// A distance oracle storing `a² + Σ (nᵢʳ)²` entries.
///
/// The tables sit in one [`DistArena`] behind an [`Arc`]: a no-op
/// [`ReducedOracle::recustomized`] refresh shares it outright, a dirty one
/// clones it and rewrites only the dirty blocks' spans and the AP span.
pub struct ReducedOracle {
    store: Store,
    /// Executor report of the reduced all-sources table (phase II).
    pub processing: ExecutionReport,
    /// Executor report of the articulation-point table construction.
    pub ap_phase: ExecutionReport,
}

impl ReducedOracle {
    /// Builds the oracle: BCC split, per-block reduction, all-sources
    /// Dijkstra on every reduced block, articulation-point table. No
    /// Phase III — extension happens per query.
    pub fn build(g: &CsrGraph, exec: &HeteroExecutor) -> ReducedOracle {
        Self::build_with_plan(Arc::new(DecompPlan::build(g)), exec)
    }

    /// Builds the oracle from a prebuilt (and possibly shared)
    /// [`DecompPlan`]; only the all-sources Dijkstra over the plan's
    /// reduced blocks and the AP table remain to be computed.
    pub fn build_with_plan(plan: Arc<DecompPlan>, exec: &HeteroExecutor) -> ReducedOracle {
        let (store, processing, ap_phase) = Store::build(plan, exec, Level::Reduced);
        ReducedOracle {
            store,
            processing,
            ap_phase,
        }
    }

    /// Incrementally refreshes the oracle for a recustomized plan: the
    /// reduced all-sources phase reruns only on the blocks whose weights
    /// differ between `self`'s plan and `plan` (see
    /// [`DecompPlan::dirty_blocks_since`]), into a clone of `self`'s arena,
    /// so clean blocks' spans are copied, never recomputed. The AP span is
    /// rebuilt whenever any block is dirty; a no-op recustomization shares
    /// the whole arena and runs nothing.
    ///
    /// Bit-identical to a cold [`Self::build_with_plan`] on `plan`;
    /// cost scales with the dirty blocks' share of the graph.
    ///
    /// # Panics
    /// Panics unless `plan` shares this oracle's plan topology (i.e. it
    /// came from [`DecompPlan::recustomized`] on the same decomposition).
    pub fn recustomized(&self, plan: Arc<DecompPlan>, exec: &HeteroExecutor) -> ReducedOracle {
        let (store, processing, ap_phase) = self.store.refreshed(plan, exec);
        ReducedOracle {
            store,
            processing,
            ap_phase,
        }
    }

    /// Stored table entries: `a² + Σ (nᵢʳ)²`.
    pub fn table_entries(&self) -> u64 {
        self.store.arena.entries() as u64
    }

    /// Shortest-path distance, `INF` when disconnected.
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        self.store.dist(u, v)
    }

    /// Materialises the full `n × n` matrix (tests / small graphs only).
    pub fn materialize(&self) -> DistMatrix {
        self.store.materialize()
    }

    /// Number of vertices of the underlying graph.
    pub fn n(&self) -> usize {
        self.store.plan.n()
    }

    /// The decomposition plan this oracle was built from.
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.store.plan
    }
}

/// Within-block distance between local ids `u` and `v` of block `b`,
/// computed from the block's reduced span of `tables` with the paper's
/// §2.1.3 minima.
pub(crate) fn block_pair_dist(
    plan: &DecompPlan,
    tables: &DistArena,
    b: u32,
    u: VertexId,
    v: VertexId,
) -> Weight {
    if u == v {
        return 0;
    }
    let sr = |i, j| tables.block(b, i, j);
    let Some(r) = plan.reduction(b) else {
        return sr(u, v);
    };
    match (r.removed_info(u), r.removed_info(v)) {
        (None, None) => sr(r.to_reduced[u as usize], r.to_reduced[v as usize]),
        (None, Some(iy)) => two_way(sr, r.to_reduced[u as usize], r, &iy),
        (Some(ix), None) => two_way(sr, r.to_reduced[v as usize], r, &ix),
        (Some(ix), Some(iy)) => {
            let (lxl, lxr) = (
                r.to_reduced[ix.left as usize],
                r.to_reduced[ix.right as usize],
            );
            let (lyl, lyr) = (
                r.to_reduced[iy.left as usize],
                r.to_reduced[iy.right as usize],
            );
            let mut best = dist_add(ix.w_left, dist_add(sr(lxl, lyl), iy.w_left))
                .min(dist_add(ix.w_left, dist_add(sr(lxl, lyr), iy.w_right)))
                .min(dist_add(ix.w_right, dist_add(sr(lxr, lyl), iy.w_left)))
                .min(dist_add(ix.w_right, dist_add(sr(lxr, lyr), iy.w_right)));
            if ix.chain == iy.chain {
                best = best.min(ix.w_left.abs_diff(iy.w_left));
            }
            best
        }
    }
}

/// Distance from a retained vertex (reduced id `retained_local`) to a
/// removed one: the shorter way round its chain.
#[inline]
fn two_way(
    sr: impl Fn(VertexId, VertexId) -> Weight,
    retained_local: VertexId,
    r: &ReducedGraph,
    info: &RemovedInfo,
) -> Weight {
    let ll = r.to_reduced[info.left as usize];
    let lr = r.to_reduced[info.right as usize];
    dist_add(sr(retained_local, ll), info.w_left)
        .min(dist_add(sr(retained_local, lr), info.w_right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::floyd_warshall;
    use crate::oracle::{build_oracle, ApspMethod};
    use ear_graph::INF;

    fn check(g: &CsrGraph) -> ReducedOracle {
        let exec = HeteroExecutor::sequential();
        let ro = ReducedOracle::build(g, &exec);
        let fw = floyd_warshall(g);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(ro.dist(u, v), fw.get(u, v), "({u},{v})");
            }
        }
        ro
    }

    #[test]
    fn matches_oracle_on_mixed_graph() {
        // triangle - bridge - square(chained) - pendant, plus a chain-heavy
        // theta block.
        let g = CsrGraph::from_edges(
            11,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 5),
                (3, 4, 1),
                (4, 5, 2),
                (5, 6, 3),
                (6, 3, 4),
                (5, 7, 9),
                (0, 8, 1),
                (8, 9, 1),
                (9, 10, 1),
                (10, 0, 1),
            ],
        );
        let ro = check(&g);
        let full = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Ear);
        assert!(
            ro.table_entries() <= full.stats().table_entries,
            "reduced {} vs full {}",
            ro.table_entries(),
            full.stats().table_entries
        );
    }

    #[test]
    fn articulation_point_inside_a_chain() {
        // Two pure cycles sharing vertex 0: within each block, vertex 0 has
        // degree 2 and is contracted away — queries must still route
        // through it correctly.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 0, 4),
                (0, 4, 5),
                (4, 5, 6),
                (5, 6, 7),
                (6, 0, 8),
            ],
        );
        check(&g);
    }

    #[test]
    fn chain_heavy_block_saves_memory() {
        // A ring of 40 with two chords: most vertices are degree-2.
        let mut edges: Vec<(u32, u32, u64)> = (0..40).map(|i| (i, (i + 1) % 40, 2)).collect();
        edges.push((0, 20, 3));
        edges.push((10, 30, 3));
        let g = CsrGraph::from_edges(40, &edges);
        let ro = check(&g);
        let full = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Ear);
        assert!(ro.table_entries() * 10 < full.stats().table_entries);
    }

    #[test]
    fn disconnected_and_isolated() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let ro = check(&g);
        assert_eq!(ro.dist(0, 4), INF);
        assert_eq!(ro.dist(3, 3), 0);
    }

    #[test]
    fn pure_cycle_component() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)]);
        check(&g);
    }

    #[test]
    fn recustomized_matches_cold_build_and_shares_clean_tables() {
        // triangle — bridge — square (chained): three blocks.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 0, 4),
                (2, 3, 5),
                (3, 4, 1),
                (4, 5, 2),
                (5, 6, 3),
                (6, 3, 4),
            ],
        );
        let exec = HeteroExecutor::sequential();
        let plan = Arc::new(DecompPlan::build(&g));
        let ro = ReducedOracle::build_with_plan(Arc::clone(&plan), &exec);
        let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
        w[0] = 30; // triangle block only
        let warm_plan = Arc::new(plan.recustomized(&w));
        let warm = ro.recustomized(Arc::clone(&warm_plan), &exec);
        let cold = ReducedOracle::build(&g.reweighted(&w), &exec);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                assert_eq!(warm.dist(u, v), cold.dist(u, v), "({u},{v})");
            }
        }
        assert_eq!(warm.table_entries(), cold.table_entries());
        // A dirty refresh rewrites its own arena: clean blocks' spans are
        // byte-identical copies and their AP segments stay shared.
        let dirty = warm_plan.dirty_blocks();
        assert_eq!(dirty.len(), 1);
        let (old, new) = (&ro.store, &warm.store);
        assert!(!Arc::ptr_eq(&old.arena, &new.arena));
        for b in 0..plan.n_blocks() as u32 {
            let clean = !dirty.contains(&b);
            if clean {
                assert_eq!(old.arena.block_span(b), new.arena.block_span(b), "span {b}");
            }
            let (i, j) = (&old.ap_segments[b as usize], &new.ap_segments[b as usize]);
            assert_eq!(Arc::ptr_eq(i, j), clean, "segment {b}");
        }
        // The phase-II units are the dirty block's sources only.
        let sources = plan.block(dirty[0]).reduced_n();
        assert_eq!(warm.processing.total_units(), sources);
        // A no-op refresh shares the whole arena and runs nothing.
        let noop = ro.recustomized(Arc::new(plan.recustomized(plan.edge_weights())), &exec);
        assert!(Arc::ptr_eq(&ro.store.arena, &noop.store.arena));
        assert_eq!(noop.processing.total_units(), 0);
    }
}
