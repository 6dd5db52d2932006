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

use std::sync::Arc;

use ear_decomp::block_cut::Route;
use ear_decomp::plan::{BlockPlan, DecompPlan};
use ear_decomp::reduce::ReducedGraph;
use ear_graph::{dist_add, CsrGraph, VertexId, Weight, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, RunOutput};

use crate::matrix::DistMatrix;
use crate::oracle::{sssp_row, ApSegment};

/// A distance oracle storing `a² + Σ (nᵢʳ)²` entries.
///
/// Per-block reduced tables sit behind [`Arc`] so an incremental
/// [`ReducedOracle::recustomized`] refresh shares clean blocks' tables
/// with its parent oracle instead of recomputing them.
pub struct ReducedOracle {
    plan: Arc<DecompPlan>,
    /// Per-block distance matrices over the *reduced* (or full, when the
    /// block is not simple) block vertices.
    srs: Vec<Arc<DistMatrix>>,
    ap_table: Arc<DistMatrix>,
    /// Per-block AP-pair edge lists feeding the AP-graph Dijkstra, cached
    /// so a refresh recollects only dirty blocks' segments.
    ap_segments: Vec<ApSegment>,
    /// Executor report of the build (reduced all-sources Dijkstra phase).
    pub processing: ExecutionReport,
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
        let all: Vec<u32> = (0..plan.n_blocks() as u32).collect();
        let (fresh, processing) = compute_reduced_tables(&plan, exec, &all);
        let srs: Vec<Arc<DistMatrix>> = fresh.into_iter().map(Arc::new).collect();
        let ap_segments: Vec<ApSegment> = srs
            .iter()
            .enumerate()
            .map(|(b, sr)| Arc::new(reduced_ap_segment(&plan, b as u32, sr)))
            .collect();
        let ap_table = Arc::new(compute_reduced_ap_table(&plan, &ap_segments));
        ReducedOracle {
            plan,
            srs,
            ap_table,
            ap_segments,
            processing,
        }
    }

    /// Incrementally refreshes the oracle for a recustomized plan: the
    /// reduced all-sources phase reruns only on `plan`'s **dirty blocks**
    /// (see [`DecompPlan::dirty_blocks`]); clean blocks' tables are shared
    /// with `self` via [`Arc::clone`]. The AP table is rebuilt whenever any
    /// block is dirty, and shared on a no-op recustomization.
    ///
    /// Bit-identical to a cold [`Self::build_with_plan`] on `plan`;
    /// cost scales with the dirty blocks' share of the graph.
    ///
    /// # Panics
    /// Panics unless `plan` shares this oracle's plan topology (i.e. it
    /// came from [`DecompPlan::recustomized`] on the same decomposition).
    pub fn recustomized(&self, plan: Arc<DecompPlan>, exec: &HeteroExecutor) -> ReducedOracle {
        assert!(
            self.plan.shares_topology(&plan),
            "recustomized requires a plan sharing this oracle's topology \
             (build it with DecompPlan::recustomized)"
        );
        let dirty = plan.dirty_blocks().to_vec();
        let _span = ear_obs::span_with("apsp.reduced_refresh", dirty.len() as u64);

        let (fresh, processing) = compute_reduced_tables(&plan, exec, &dirty);
        let mut srs = self.srs.clone();
        for (&b, t) in dirty.iter().zip(fresh) {
            srs[b as usize] = Arc::new(t);
        }
        // Only dirty blocks' AP-pair segments need recollecting.
        let mut ap_segments = self.ap_segments.clone();
        for &b in &dirty {
            ap_segments[b as usize] = Arc::new(reduced_ap_segment(&plan, b, &srs[b as usize]));
        }
        let ap_table = if dirty.is_empty() {
            Arc::clone(&self.ap_table)
        } else {
            Arc::new(compute_reduced_ap_table(&plan, &ap_segments))
        };

        if ear_obs::is_enabled() {
            ear_obs::counter_add("apsp.reduced_refreshes", 1);
            ear_obs::counter_add("apsp.reduced_refresh.dirty_blocks", dirty.len() as u64);
        }

        ReducedOracle {
            plan,
            srs,
            ap_table,
            ap_segments,
            processing,
        }
    }

    /// Stored table entries: `a² + Σ (nᵢʳ)²`.
    pub fn table_entries(&self) -> u64 {
        (self.ap_table.n() as u64).pow(2)
            + self
                .srs
                .iter()
                .map(|sr| (sr.n() as u64).pow(2))
                .sum::<u64>()
    }

    /// Shortest-path distance, `INF` when disconnected.
    pub fn dist(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        let bct = self.plan.bct();
        match bct.route(u, v) {
            Route::Disconnected => INF,
            Route::SameBlock(b) => {
                let (Some(lu), Some(lv)) = (self.plan.local(b, u), self.plan.local(b, v)) else {
                    return INF;
                };
                block_pair_dist(self.plan.block(b), &self.srs[b as usize], lu, lv)
            }
            Route::ViaAps { a1, a2 } => {
                let d1 = if a1 == u { 0 } else { self.vertex_to_ap(u, a1) };
                let d2 = if a2 == v { 0 } else { self.vertex_to_ap(v, a2) };
                let i = bct.ap_index[a1 as usize];
                let j = bct.ap_index[a2 as usize];
                dist_add(d1, dist_add(self.ap_table.get(i, j), d2))
            }
        }
    }

    fn vertex_to_ap(&self, x: VertexId, ap: VertexId) -> Weight {
        let b = self.plan.bct().vertex_block[x as usize];
        debug_assert_ne!(b, u32::MAX);
        if let (Some(lx), Some(la)) = (self.plan.local(b, x), self.plan.local(b, ap)) {
            return block_pair_dist(self.plan.block(b), &self.srs[b as usize], lx, la);
        }
        // x is an articulation point whose stored block lacks `ap`: scan
        // x's own adjacent blocks (precomputed AP→blocks index) for one
        // holding both — O(deg(x)) instead of the old O(n_blocks) scan.
        for &b in self.plan.bct().blocks_of_ap(x) {
            if let (Some(lx), Some(la)) = (self.plan.local(b, x), self.plan.local(b, ap)) {
                return block_pair_dist(self.plan.block(b), &self.srs[b as usize], lx, la);
            }
        }
        INF
    }

    /// Number of vertices of the underlying graph.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// The decomposition plan this oracle was built from.
    pub fn plan(&self) -> &Arc<DecompPlan> {
        &self.plan
    }
}

/// The reduced all-sources Dijkstra phase for the given `blocks` only.
/// Returns one reduced table per requested block, aligned with `blocks`,
/// plus the executor report. The cold build passes every block; an
/// incremental refresh passes just the dirty ones.
fn compute_reduced_tables(
    plan: &Arc<DecompPlan>,
    exec: &HeteroExecutor,
    blocks: &[u32],
) -> (Vec<DistMatrix>, ExecutionReport) {
    let mut pos = vec![usize::MAX; plan.n_blocks()];
    for (i, &b) in blocks.iter().enumerate() {
        pos[b as usize] = i;
    }
    let mut srs: Vec<DistMatrix> = blocks
        .iter()
        .map(|&b| {
            let srn = plan
                .reduction(b)
                .map_or(plan.block(b).n(), |r| r.reduced.n());
            DistMatrix::new(srn)
        })
        .collect();

    let units: Vec<(u32, u32)> = blocks
        .iter()
        .flat_map(|&b| {
            let srcs = srs[pos[b as usize]].n();
            (0..srcs as u32).map(move |s| (b, s))
        })
        .collect();
    let RunOutput {
        results: rows,
        report: processing,
    } = exec.run(
        units.clone(),
        |&(b, _)| plan.block(b).m() as u64 + 1,
        |&(b, s)| {
            let target = match plan.reduction(b) {
                Some(r) => r.reduced.view(),
                None => plan.block_graph(b),
            };
            // Pooled engines: scratch reused across the (block, source)
            // workunits each worker thread handles.
            sssp_row(target, s)
        },
    );
    for ((b, s), row) in units.into_iter().zip(rows) {
        for (t, w) in row.into_iter().enumerate() {
            srs[pos[b as usize]].set(s, t as u32, w);
        }
    }
    (srs, processing)
}

/// Block `b`'s contribution to the reduced AP graph: one edge per finite
/// AP pair, with within-block AP distances answered by the per-query
/// formula (an articulation point can itself be a degree-2 vertex of its
/// block). Deterministic `i < j` order, as the cold build has always used.
fn reduced_ap_segment(plan: &DecompPlan, b: u32, sr: &DistMatrix) -> Vec<(u32, u32, Weight)> {
    let bct = plan.bct();
    let aps = &bct.block_aps[b as usize];
    let mut seg = Vec::new();
    for i in 0..aps.len() {
        for j in i + 1..aps.len() {
            let (lu, lv) = (
                plan.local(b, aps[i]).unwrap(),
                plan.local(b, aps[j]).unwrap(),
            );
            let w = block_pair_dist(plan.block(b), sr, lu, lv);
            if w < INF {
                seg.push((
                    bct.ap_index[aps[i] as usize],
                    bct.ap_index[aps[j] as usize],
                    w,
                ));
            }
        }
    }
    seg
}

/// AP table over the AP graph, from prebuilt per-block edge segments —
/// a refresh recomputes only dirty blocks' segments. Concatenation in
/// block id order keeps the result bit-identical to a cold build.
fn compute_reduced_ap_table(plan: &Arc<DecompPlan>, segments: &[ApSegment]) -> DistMatrix {
    let a = plan.bct().ap_count();
    let ap_edges: Vec<(u32, u32, Weight)> = segments
        .iter()
        .flat_map(|seg| seg.iter().copied())
        .collect();
    let ap_graph = CsrGraph::from_edges(a, &ap_edges);
    let ap_rows: Vec<Vec<Weight>> = (0..a as u32)
        .map(|s| sssp_row(ap_graph.view(), s).0)
        .collect();
    DistMatrix::from_rows(ap_rows)
}

/// Within-block distance between two block-local vertices, computed from
/// the reduced table with the paper's §2.1.3 minima.
fn block_pair_dist(bp: &BlockPlan, sr: &DistMatrix, u: VertexId, v: VertexId) -> Weight {
    if u == v {
        return 0;
    }
    let Some(r) = &bp.reduction else {
        return sr.get(u, v);
    };
    match (r.removed_info(u), r.removed_info(v)) {
        (None, None) => sr.get(r.to_reduced[u as usize], r.to_reduced[v as usize]),
        (None, Some(iy)) => {
            let lu = r.to_reduced[u as usize];
            two_way(sr, lu, r, &iy)
        }
        (Some(ix), None) => {
            let lv = r.to_reduced[v as usize];
            two_way(sr, lv, r, &ix)
        }
        (Some(ix), Some(iy)) => {
            let (lxl, lxr) = (
                r.to_reduced[ix.left as usize],
                r.to_reduced[ix.right as usize],
            );
            let (lyl, lyr) = (
                r.to_reduced[iy.left as usize],
                r.to_reduced[iy.right as usize],
            );
            let mut best = dist_add(ix.w_left, dist_add(sr.get(lxl, lyl), iy.w_left))
                .min(dist_add(ix.w_left, dist_add(sr.get(lxl, lyr), iy.w_right)))
                .min(dist_add(ix.w_right, dist_add(sr.get(lxr, lyl), iy.w_left)))
                .min(dist_add(ix.w_right, dist_add(sr.get(lxr, lyr), iy.w_right)));
            if ix.chain == iy.chain {
                best = best.min(ix.w_left.abs_diff(iy.w_left));
            }
            best
        }
    }
}

#[inline]
fn two_way(
    sr: &DistMatrix,
    retained_local: VertexId,
    r: &ReducedGraph,
    info: &ear_decomp::reduce::RemovedInfo,
) -> Weight {
    let ll = r.to_reduced[info.left as usize];
    let lr = r.to_reduced[info.right as usize];
    dist_add(sr.get(retained_local, ll), info.w_left)
        .min(dist_add(sr.get(retained_local, lr), info.w_right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::floyd_warshall;
    use crate::oracle::{build_oracle, ApspMethod};

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
        // Clean blocks' tables are the parent's allocations.
        let dirty = warm_plan.dirty_blocks();
        assert_eq!(dirty.len(), 1);
        for b in 0..plan.n_blocks() {
            let shared = Arc::ptr_eq(&ro.srs[b], &warm.srs[b]);
            assert_eq!(shared, !dirty.contains(&(b as u32)), "block {b}");
            let seg_shared = Arc::ptr_eq(&ro.ap_segments[b], &warm.ap_segments[b]);
            assert_eq!(seg_shared, !dirty.contains(&(b as u32)), "segment {b}");
        }
        // No-op refresh shares everything, including the AP table.
        let noop = ro.recustomized(Arc::new(plan.recustomized(plan.edge_weights())), &exec);
        assert!(Arc::ptr_eq(&ro.ap_table, &noop.ap_table));
        for b in 0..plan.n_blocks() {
            assert!(Arc::ptr_eq(&ro.srs[b], &noop.srs[b]));
        }
    }
}
