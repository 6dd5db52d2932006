//! The Djidjev et al. partition-based APSP baseline (paper §2.4.3).
//!
//! Pipeline, following the paper's description:
//!
//! 1. partition the graph into `k` parts (METIS in the original; our
//!    region-growing partitioner here);
//! 2. all-sources Dijkstra *inside* each part;
//! 3. build the **boundary graph**: boundary vertices (endpoints of cut
//!    edges), the cut edges themselves, plus an edge `uv` for every
//!    same-part boundary pair weighted with the within-part distance;
//!    all-sources Dijkstra on it gives exact global boundary-to-boundary
//!    distances (the original recurses here; our boundary graphs are small
//!    enough to solve directly, which only makes the baseline *faster*);
//! 4. combine: a `u → v` path is either within-part or decomposes as
//!    `u →(part) b₁ →(boundary graph) b₂ →(part) v`.
//!
//! Efficient only when the boundary is small — which is why the paper (and
//! we) evaluate it on planar graphs.

use ear_graph::{dijkstra_with_stats, dist_add, CsrGraph, VertexId, Weight, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, RunOutput, WorkCounters};

use crate::matrix::DistMatrix;
use crate::partition::{partition_graph, Partition};

/// Result of [`djidjev_apsp`].
#[derive(Debug)]
pub struct DjidjevOutput {
    /// Full distance matrix.
    pub dist: DistMatrix,
    /// Number of parts used.
    pub k: usize,
    /// Boundary-graph vertex count.
    pub boundary_n: usize,
    /// Executor report of the per-part + boundary Dijkstra phases.
    pub processing: ExecutionReport,
    /// Executor report of the combine phase.
    pub combine: ExecutionReport,
}

impl DjidjevOutput {
    /// Combined modelled time of both phases.
    pub fn modelled_time_s(&self) -> f64 {
        self.processing.makespan_s + self.combine.makespan_s
    }
}

/// Runs the partition-based APSP with `k` parts.
pub fn djidjev_apsp(g: &CsrGraph, k: usize, exec: &HeteroExecutor) -> DjidjevOutput {
    let n = g.n();
    let p = partition_graph(g, k);
    let parts = p.members();
    let k = p.k;

    // Per-part induced subgraphs.
    let subs: Vec<(CsrGraph, ear_graph::SubgraphMap)> = parts
        .iter()
        .map(|m| ear_graph::induced_subgraph(g, m))
        .collect();

    // Phase A: all-sources Dijkstra inside every part, one workunit per
    // (part, source).
    let units: Vec<(u32, u32)> = (0..k as u32)
        .flat_map(|pi| (0..subs[pi as usize].0.n() as u32).map(move |s| (pi, s)))
        .collect();
    let RunOutput {
        results: local_rows,
        report: part_report,
    } = exec.run(
        units.clone(),
        |&(pi, _)| subs[pi as usize].0.m() as u64 + 1,
        |&(pi, s)| {
            let (row, stats) = dijkstra_with_stats(&subs[pi as usize].0, s);
            let counters = WorkCounters {
                edges_relaxed: stats.edges_relaxed,
                vertices_settled: stats.settled,
                ..Default::default()
            };
            (row, counters)
        },
    );
    // Assemble per-part matrices.
    let mut local: Vec<DistMatrix> = subs.iter().map(|(sg, _)| DistMatrix::new(sg.n())).collect();
    for ((pi, s), row) in units.into_iter().zip(local_rows) {
        for (t, w) in row.into_iter().enumerate() {
            local[pi as usize].set(s, t as u32, w);
        }
    }

    // Phase B: the boundary graph.
    let boundary = p.boundary_vertices(g);
    let bn = boundary.len();
    let mut b_index = vec![u32::MAX; n];
    for (i, &v) in boundary.iter().enumerate() {
        b_index[v as usize] = i as u32;
    }
    let mut b_edges: Vec<(u32, u32, Weight)> = Vec::new();
    for e in p.cut_edges(g) {
        let r = g.edge(e);
        b_edges.push((b_index[r.u as usize], b_index[r.v as usize], r.w));
    }
    // Same-part boundary pairs, weighted with the within-part distance.
    let mut per_part_boundary: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for &v in &boundary {
        per_part_boundary[p.part[v as usize] as usize].push(v);
    }
    for (pi, bs) in per_part_boundary.iter().enumerate() {
        let (_, map) = &subs[pi];
        for i in 0..bs.len() {
            for j in i + 1..bs.len() {
                let (li, lj) = (map.local(bs[i]).unwrap(), map.local(bs[j]).unwrap());
                let w = local[pi].get(li, lj);
                if w < INF {
                    b_edges.push((b_index[bs[i] as usize], b_index[bs[j] as usize], w));
                }
            }
        }
    }
    let bg = CsrGraph::from_edges(bn, &b_edges);
    let RunOutput {
        results: b_rows,
        report: bnd_report,
    } = exec.run(
        (0..bn as u32).collect::<Vec<_>>(),
        |_| bg.m() as u64 + 1,
        |&s| {
            let (row, stats) = dijkstra_with_stats(&bg, s);
            let counters = WorkCounters {
                edges_relaxed: stats.edges_relaxed,
                vertices_settled: stats.settled,
                ..Default::default()
            };
            (row, counters)
        },
    );
    let db = DistMatrix::from_rows(b_rows);

    // Phase C: combine — one workunit per source vertex.
    let RunOutput {
        results: rows,
        report: combine,
    } = exec.run(
        (0..n as u32).collect::<Vec<_>>(),
        |_| n as u64,
        |&u| {
            combine_row(
                g,
                &p,
                &subs,
                &local,
                &boundary,
                &b_index,
                &per_part_boundary,
                &db,
                u,
            )
        },
    );
    let dist = DistMatrix::from_rows(rows);

    let processing = part_report.merge(bnd_report);
    DjidjevOutput {
        dist,
        k,
        boundary_n: bn,
        processing,
        combine,
    }
}

#[allow(clippy::too_many_arguments)]
fn combine_row(
    g: &CsrGraph,
    p: &Partition,
    subs: &[(CsrGraph, ear_graph::SubgraphMap)],
    local: &[DistMatrix],
    boundary: &[VertexId],
    b_index: &[u32],
    per_part_boundary: &[Vec<VertexId>],
    db: &DistMatrix,
    u: VertexId,
) -> (Vec<Weight>, WorkCounters) {
    let n = g.n();
    let pu = p.part[u as usize] as usize;
    let (_, map_u) = &subs[pu];
    let lu = map_u.local(u).expect("vertex in its own part");
    let mut combos = 0u64;

    // d(u, b) for every boundary vertex b: enter the boundary graph through
    // u's own part's boundary.
    let bn = boundary.len();
    let mut du_b = vec![INF; bn];
    for &b1 in &per_part_boundary[pu] {
        let l1 = map_u.local(b1).unwrap();
        let through = local[pu].get(lu, l1);
        if through >= INF {
            continue;
        }
        let db_row = db.row(b_index[b1 as usize]);
        for (bi, &dbb) in db_row.iter().enumerate() {
            combos += 1;
            let cand = dist_add(through, dbb);
            if cand < du_b[bi] {
                du_b[bi] = cand;
            }
        }
    }

    let mut row = vec![INF; n];
    row[u as usize] = 0;
    for v in 0..n as u32 {
        if v == u {
            continue;
        }
        let pv = p.part[v as usize] as usize;
        let (_, map_v) = &subs[pv];
        let lv = map_v.local(v).unwrap();
        let mut best = INF;
        if pv == pu {
            best = local[pu].get(lu, lv);
        }
        if b_index[v as usize] != u32::MAX {
            best = best.min(du_b[b_index[v as usize] as usize]);
        } else {
            // Last boundary vertex before entering v's part.
            for &b2 in &per_part_boundary[pv] {
                combos += 1;
                let l2 = map_v.local(b2).unwrap();
                let cand = dist_add(du_b[b_index[b2 as usize] as usize], local[pv].get(l2, lv));
                if cand < best {
                    best = cand;
                }
            }
        }
        row[v as usize] = best;
    }
    (
        row,
        WorkCounters {
            dense_combined: combos,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_testkit::reference::floyd_warshall;

    fn grid(rows: u32, cols: u32) -> CsrGraph {
        let idx = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        let mut w = 1u64;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1), w));
                    w = w % 7 + 1;
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c), w));
                    w = w % 5 + 1;
                }
            }
        }
        CsrGraph::from_edges((rows * cols) as usize, &edges)
    }

    fn check(g: &CsrGraph, k: usize) -> DjidjevOutput {
        let out = djidjev_apsp(g, k, &HeteroExecutor::sequential());
        let oracle = floyd_warshall(g);
        for i in 0..g.n() as u32 {
            for j in 0..g.n() as u32 {
                assert_eq!(out.dist.get(i, j), oracle.get(i, j), "({i},{j})");
            }
        }
        out
    }

    #[test]
    fn grid_with_two_parts() {
        let out = check(&grid(5, 6), 2);
        assert_eq!(out.k, 2);
        assert!(out.boundary_n > 0);
    }

    #[test]
    fn grid_with_many_parts() {
        check(&grid(6, 6), 6);
    }

    #[test]
    fn single_part_degenerates_to_local_apsp() {
        let out = check(&grid(4, 4), 1);
        assert_eq!(out.boundary_n, 0);
    }

    #[test]
    fn weighted_ring_crossing_parts() {
        let edges: Vec<(u32, u32, u64)> = (0..12)
            .map(|i| (i, (i + 1) % 12, (i as u64 % 3) + 1))
            .collect();
        let g = CsrGraph::from_edges(12, &edges);
        check(&g, 3);
    }

    #[test]
    fn disconnected_graph() {
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 2),
                (1, 2, 2),
                (2, 0, 3),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
            ],
        );
        check(&g, 3);
    }

    #[test]
    fn hetero_executor_matches_sequential() {
        let g = grid(5, 5);
        let a = djidjev_apsp(&g, 3, &HeteroExecutor::sequential());
        let b = djidjev_apsp(&g, 3, &HeteroExecutor::cpu_gpu());
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn path_that_leaves_and_reenters_a_part() {
        // Two parts where the best intra-part route detours through the
        // other part: a ladder with a heavy rung side.
        //   0 -100- 1      part boundary between columns
        //   |       |
        //   2 - 1 - 3
        let g = CsrGraph::from_edges(4, &[(0, 1, 100), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        check(&g, 2);
    }
}
