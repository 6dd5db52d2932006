//! Algorithm 1 of the paper: APSP through ear decomposition.
//!
//! Three phases:
//!
//! 1. **Preprocessing** — contract degree-2 chains ([`ear_decomp::reduce`])
//!    into the reduced graph `G^r`.
//! 2. **Processing** — the all-sources table of `G^r`, one workunit per
//!    source, scheduled across the heterogeneous devices: Dijkstra from
//!    every source outside a maximal independent set of `G^r`, then each
//!    remaining row as the minimum over its neighbours' rows
//!    ([`crate::oracle::phase2_table`]), bit-identical to Dijkstra.
//! 3. **Post-processing** — extend `S^r` to all of `G` with the closed-form
//!    minima of paper §2.1.3: a removed vertex reaches the world only
//!    through its chain anchors `left(x)` / `right(x)`, so
//!    `S[x,v] = min(wt(x,ℓx) + S^r[ℓx,v], wt(x,rx) + S^r[rx,v])` and the
//!    four-way analogue for two removed endpoints, plus the same-chain
//!    direct-path case. Also one workunit per source vertex.
//!
//! The function accepts *any* simple graph (not just biconnected ones):
//! distances saturate at `INF` across connected components, and the reduced
//! graph construction is total (pure cycles keep one representative). The
//! biconnected-components pipeline of [`crate::oracle`] is the memory-frugal
//! way to handle general graphs; using `ear_apsp` directly trades memory
//! (`n²`) for simplicity.

use ear_decomp::reduce::{reduce_graph, ReducedGraph, RemovedInfo};
use ear_graph::{dist_add, CsrGraph, VertexId, Weight};
use ear_hetero::{ExecutionReport, HeteroExecutor, WorkCounters};

use crate::matrix::DistMatrix;
use crate::oracle::phase2_table;

/// Result of [`ear_apsp`].
#[derive(Debug)]
pub struct EarApspOutput {
    /// Full distance matrix over the vertices of the input graph.
    pub dist: DistMatrix,
    /// Reduced-graph vertex count (`|V^r|`).
    pub reduced_n: usize,
    /// Reduced-graph edge count (`|E^r|`, multigraph).
    pub reduced_m: usize,
    /// Degree-2 vertices removed by preprocessing.
    pub removed: usize,
    /// Executor report for Phase II (Dijkstra and derived rows on `G^r`).
    pub processing: ExecutionReport,
    /// Executor report for Phase III (distance extension).
    pub post: ExecutionReport,
}

impl EarApspOutput {
    /// Combined modelled time of both device phases.
    pub fn modelled_time_s(&self) -> f64 {
        self.processing.makespan_s + self.post.makespan_s
    }
}

/// Runs the three-phase ear-decomposition APSP on `g`.
pub fn ear_apsp(g: &CsrGraph, exec: &HeteroExecutor) -> EarApspOutput {
    // Phase I.
    let r = reduce_graph(g.view()).expect("ear_apsp requires a simple graph");
    let nr = r.reduced.n();

    // Phase II: one row of S^r per source of G^r — Dijkstra outside an
    // independent set, the minimum over neighbours' rows inside it.
    let (sr, processing) = phase2_table(r.reduced.view(), exec);

    // Phase III: one workunit per original vertex (its row of S).
    let n = g.n();
    let mut dist = DistMatrix::new(n);
    let mut rows: Vec<(u32, &mut [Weight])> = (0..).zip(dist.rows_mut()).collect();
    let post = exec.run_mut(
        &mut rows,
        |_| n as u64,
        |(x, row)| extend_row(n, &r, &sr, *x, row),
    );

    EarApspOutput {
        dist,
        reduced_n: nr,
        reduced_m: r.reduced.m(),
        removed: r.removed_count(),
        processing,
        post,
    }
}

/// Writes the full distance row of `x` in `G` into `row`, from the reduced
/// matrix (the `UPDATE_DISTANCE(s)` of Algorithm 1), and returns its work
/// counters. `n` is the vertex count of `G` — the whole graph never needs
/// to be materialized, so the per-BCC pipeline in [`crate::oracle`] can
/// drive this from zero-copy block views.
pub(crate) fn extend_row(
    n: usize,
    r: &ReducedGraph,
    sr: &DistMatrix,
    x: VertexId,
    row: &mut [Weight],
) -> WorkCounters {
    assert_eq!(row.len(), n, "distance row length");
    let mut combos = 0u64;
    match r.removed_info(x) {
        None => {
            // x survives into G^r: its reduced row answers retained targets
            // directly and removed targets through their two anchors.
            let lx = r.to_reduced[x as usize];
            let sr_row = sr.row(lx);
            for y in 0..n as u32 {
                row[y as usize] = match r.removed_info(y) {
                    None => sr_row[r.to_reduced[y as usize] as usize],
                    Some(iy) => {
                        combos += 2;
                        via_anchors_one_sided(sr_row, r, &iy)
                    }
                };
            }
        }
        Some(ix) => {
            let ll = r.to_reduced[ix.left as usize];
            let lr = r.to_reduced[ix.right as usize];
            let row_l = sr.row(ll);
            let row_r = sr.row(lr);
            for y in 0..n as u32 {
                if y == x {
                    row[y as usize] = 0;
                    continue;
                }
                row[y as usize] = match r.removed_info(y) {
                    None => {
                        combos += 2;
                        let ly = r.to_reduced[y as usize] as usize;
                        dist_add(ix.w_left, row_l[ly]).min(dist_add(ix.w_right, row_r[ly]))
                    }
                    Some(iy) => {
                        combos += 4;
                        let lyl = r.to_reduced[iy.left as usize] as usize;
                        let lyr = r.to_reduced[iy.right as usize] as usize;
                        // The paper's four-way minimum: leave via ℓx or rx,
                        // enter via ℓy or ry.
                        let mut best = dist_add(ix.w_left, dist_add(row_l[lyl], iy.w_left))
                            .min(dist_add(ix.w_left, dist_add(row_l[lyr], iy.w_right)))
                            .min(dist_add(ix.w_right, dist_add(row_r[lyl], iy.w_left)))
                            .min(dist_add(ix.w_right, dist_add(row_r[lyr], iy.w_right)));
                        if ix.chain == iy.chain {
                            // Same ear: the direct sub-chain path never
                            // leaves the ear (paper: "the unique xy-path
                            // along P that does not use ℓx and rx").
                            combos += 1;
                            best = best.min(ix.w_left.abs_diff(iy.w_left));
                        }
                        best
                    }
                };
            }
        }
    }
    WorkCounters {
        distances_combined: combos,
        ..Default::default()
    }
}

/// `S[x,v]` for retained `x` (whose reduced row is `sr_row`) and removed `v`.
#[inline]
fn via_anchors_one_sided(sr_row: &[Weight], r: &ReducedGraph, iy: &RemovedInfo) -> Weight {
    let lyl = r.to_reduced[iy.left as usize] as usize;
    let lyr = r.to_reduced[iy.right as usize] as usize;
    dist_add(sr_row[lyl], iy.w_left).min(dist_add(sr_row[lyr], iy.w_right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::floyd_warshall;

    fn check(g: &CsrGraph) -> EarApspOutput {
        let out = ear_apsp(g, &HeteroExecutor::sequential());
        let oracle = floyd_warshall(g);
        for i in 0..g.n() as u32 {
            for j in 0..g.n() as u32 {
                assert_eq!(
                    out.dist.get(i, j),
                    oracle.get(i, j),
                    "mismatch at ({i},{j})"
                );
            }
        }
        out
    }

    #[test]
    fn theta_graph() {
        // Two chains plus a direct edge between the same anchors.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (0, 2, 10), (0, 3, 3), (3, 2, 4)]);
        let out = check(&g);
        assert_eq!(out.removed, 2);
        assert_eq!(out.reduced_n, 2);
    }

    #[test]
    fn pure_cycle() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)]);
        let out = check(&g);
        assert_eq!(out.reduced_n, 1);
        assert_eq!(out.removed, 4);
    }

    #[test]
    fn long_single_chain_between_hubs() {
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1, 5),
                (1, 2, 5),
                (2, 3, 5),
                (3, 4, 5),
                (0, 5, 1),
                (5, 4, 1),
                (0, 6, 2),
                (6, 4, 9),
                (0, 7, 1),
                (7, 4, 1),
            ],
        );
        check(&g);
    }

    #[test]
    fn no_degree_two_vertices() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 2),
                (0, 3, 3),
                (1, 2, 4),
                (1, 3, 5),
                (2, 3, 6),
            ],
        );
        let out = check(&g);
        assert_eq!(out.removed, 0);
        assert_eq!(out.reduced_n, 4);
    }

    #[test]
    fn disconnected_graph_saturates() {
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 2),
                (4, 5, 2),
                (5, 3, 2),
            ],
        );
        check(&g);
    }

    #[test]
    fn pendant_chains() {
        // Hub triangle with a dangling path 2-3-4-5.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 2),
                (3, 4, 3),
                (4, 5, 4),
            ],
        );
        let out = check(&g);
        // 3 and 4 are interior of the pendant chain; the triangle's 0 and 1
        // are also degree-2 (contracted into a 2→2 loop chain); 5 (degree 1)
        // and hub 2 stay.
        assert_eq!(out.removed, 4);
        assert_eq!(out.reduced_n, 2);
    }

    #[test]
    fn same_chain_shortcut_vs_around() {
        // Chain 0-1-2-3 between anchors 0,3 with a cheap bypass: going
        // around can beat the direct chain segment.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 10),
                (1, 2, 10),
                (2, 3, 10),
                (0, 3, 1),
                (0, 4, 1),
                (3, 4, 1),
                (0, 5, 1),
                (3, 5, 1),
            ],
        );
        let out = check(&g);
        // d(1,2) must consider 1-0-3-2 = 10 + 1 + 10 = 21 vs direct 10.
        assert_eq!(out.dist.get(1, 2), 10);
        // d(1, 2) with heavier middle: tested via oracle equality anyway.
    }

    #[test]
    fn around_beats_direct_on_same_chain() {
        // Heavy middle edge: direct 1-2 costs 100, around costs 22.
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 10),
                (1, 2, 100),
                (2, 3, 10),
                (0, 3, 2),
                (0, 4, 1),
                (3, 4, 1),
            ],
        );
        let out = check(&g);
        assert_eq!(out.dist.get(1, 2), 22); // 1-0 (10) + 0-3 (2) + 3-2 (10)
    }

    #[test]
    fn executor_variants_agree() {
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 3),
                (1, 2, 4),
                (2, 0, 5),
                (2, 3, 1),
                (3, 4, 2),
                (4, 5, 6),
                (5, 2, 7),
            ],
        );
        let a = ear_apsp(&g, &HeteroExecutor::sequential());
        let b = ear_apsp(&g, &HeteroExecutor::cpu_gpu());
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn counters_report_real_reduction() {
        // A cycle with a long tail of degree-2 vertices: the reduced graph
        // is tiny, so Phase II relaxations must be far below plain APSP's.
        let mut edges = vec![];
        for i in 0..20u32 {
            edges.push((i, i + 1, 1u64));
        }
        edges.push((20, 0, 1));
        let g = CsrGraph::from_edges(21, &edges);
        let out = check(&g);
        assert_eq!(out.reduced_n, 1);
        let (_, plain_rep) = crate::baselines::plain_apsp(&g, &HeteroExecutor::sequential());
        assert!(
            out.processing.total_counters().edges_relaxed
                < plain_rep.total_counters().edges_relaxed / 10
        );
    }
}
