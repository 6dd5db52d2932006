//! Brandes' betweenness centrality for weighted graphs, with optional
//! vertex multiplicities (the hook the pendant reduction uses).
//!
//! Weights must be positive. With a zero-weight edge, shortest paths may
//! cycle through it at no cost, so the shortest *simple* paths form no
//! Brandes DAG to count them on: every entry point returns
//! [`ZeroWeightEdge`] instead.
//!
//! Betweenness of `v`: `Σ_{s≠v≠t} σ_st(v)/σ_st` over unordered pairs,
//! where `σ_st` counts shortest `s–t` paths. Computed with one
//! Dijkstra-with-path-counting per source plus the backward dependency
//! accumulation; sources fan out as workunits exactly like the paper's
//! APSP Phase II.

use ear_graph::{CsrGraph, EdgeId, PathDag, VertexId, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, RunOutput, WorkCounters};

// Per-thread path DAGs (an `ear_graph::pool`), so warm predecessor lists
// survive the scoped worker threads of each parallel region.
ear_graph::scratch_pool! {
    fn with_dag(PathDag, bound = 64);
}

/// The error of every betweenness entry point on a graph with a
/// zero-weight edge: the first such edge, by edge id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroWeightEdge {
    /// Its edge id.
    pub edge: EdgeId,
    /// Its endpoints.
    pub u: VertexId,
    /// Its endpoints.
    pub v: VertexId,
}

impl std::fmt::Display for ZeroWeightEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "betweenness needs positive weights: edge {} ({}-{}) weighs 0",
            self.edge, self.u, self.v
        )
    }
}

impl std::error::Error for ZeroWeightEdge {}

/// `Ok` when every edge of `g` weighs more than 0, else its first
/// zero-weight edge.
pub(crate) fn positive_weights(g: &CsrGraph) -> Result<(), ZeroWeightEdge> {
    match (0..).zip(g.edges()).find(|(_, e)| e.w == 0) {
        Some((edge, e)) => Err(ZeroWeightEdge {
            edge,
            u: e.u,
            v: e.v,
        }),
        None => Ok(()),
    }
}

/// Dependency accumulation from one source: returns `δ_s(v)` for all `v`,
/// where targets carry weight `target_w[t]` (classic Brandes is all-ones).
fn dependencies(g: &CsrGraph, s: VertexId, target_w: &[f64]) -> (Vec<f64>, WorkCounters) {
    with_dag(|dag| {
        let run = ear_graph::with_engine(|eng| eng.count_paths(g.view(), s, dag));
        let mut stats = WorkCounters {
            vertices_settled: run.settled,
            edges_relaxed: run.edges_relaxed,
            ..WorkCounters::default()
        };
        let mut delta = vec![0.0; g.n()];
        for &v in dag.order.iter().rev() {
            if v == s || dag.dist[v as usize] >= INF {
                continue;
            }
            let coeff = (target_w[v as usize] + delta[v as usize]) / dag.sigma[v as usize];
            for &u in &dag.preds[v as usize] {
                delta[u as usize] += dag.sigma[u as usize] * coeff;
                stats.distances_combined += 1;
            }
        }
        (delta, stats)
    })
}

/// Weighted-multiplicity betweenness over a restricted source set: each
/// source contributes `source_w[s] × δ`, targets weigh `target_w[t]`, and
/// ordered pairs are halved. With all-ones weights and all vertices as
/// sources this is plain betweenness.
///
/// # Errors
/// [`ZeroWeightEdge`] when an edge of `g` weighs 0.
pub fn betweenness_weighted(
    g: &CsrGraph,
    sources: &[VertexId],
    source_w: &[f64],
    target_w: &[f64],
) -> Result<Vec<f64>, ZeroWeightEdge> {
    positive_weights(g)?;
    let partials = ear_graph::par_map(sources, |&s| {
        let (mut delta, _) = dependencies(g, s, target_w);
        let ws = source_w[s as usize];
        for (v, d) in delta.iter_mut().enumerate() {
            *d = if v == s as usize { 0.0 } else { *d * ws };
        }
        delta
    });
    let mut bc = vec![0.0; g.n()];
    for p in partials {
        for (v, d) in p.into_iter().enumerate() {
            bc[v] += d;
        }
    }
    for b in &mut bc {
        *b *= 0.5; // unordered pairs
    }
    Ok(bc)
}

/// Exact betweenness centrality of every vertex (unordered pairs).
///
/// ```
/// use ear_bc::betweenness;
/// use ear_graph::CsrGraph;
/// // Path 0-1-2: the middle vertex carries the single cross pair.
/// let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
/// assert_eq!(betweenness(&g), Ok(vec![0.0, 1.0, 0.0]));
/// // A zero-weight edge is refused.
/// let z = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 0)]);
/// assert_eq!(betweenness(&z).unwrap_err().edge, 1);
/// ```
///
/// # Errors
/// [`ZeroWeightEdge`] when an edge of `g` weighs 0.
pub fn betweenness(g: &CsrGraph) -> Result<Vec<f64>, ZeroWeightEdge> {
    let ones = vec![1.0; g.n()];
    let sources: Vec<VertexId> = (0..g.n() as u32).collect();
    betweenness_weighted(g, &sources, &ones, &ones)
}

/// Betweenness with per-source workunits on the heterogeneous executor —
/// the same scheduling shape as the paper's APSP Phase II, with the same
/// modelled report.
///
/// # Errors
/// [`ZeroWeightEdge`] when an edge of `g` weighs 0.
pub fn betweenness_hetero(
    g: &CsrGraph,
    exec: &HeteroExecutor,
) -> Result<(Vec<f64>, ExecutionReport), ZeroWeightEdge> {
    positive_weights(g)?;
    let ones = vec![1.0; g.n()];
    let m_hint = g.m() as u64 + 1;
    let sources: Vec<VertexId> = (0..g.n() as u32).collect();
    let RunOutput { results, report } = exec.run(
        sources,
        |_| m_hint,
        |&s| {
            let (mut delta, stats) = dependencies(g, s, &ones);
            delta[s as usize] = 0.0;
            (delta, stats)
        },
    );
    let mut bc = vec![0.0; g.n()];
    for p in results {
        for (v, d) in p.into_iter().enumerate() {
            bc[v] += d;
        }
    }
    for b in &mut bc {
        *b *= 0.5;
    }
    Ok((bc, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Betweenness of a graph with positive weights.
    fn betweenness(g: &CsrGraph) -> Vec<f64> {
        super::betweenness(g).expect("positive weights")
    }

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "vertex {i}: {x} vs {y}");
        }
    }

    /// Brute force: enumerate all shortest paths per pair with DFS over
    /// the predecessor DAG.
    fn brute(g: &CsrGraph) -> Vec<f64> {
        let n = g.n();
        let mut bc = vec![0.0; n];
        let mut sp = PathDag::default();
        for s in 0..n as u32 {
            ear_graph::SsspEngine::new().count_paths(g.view(), s, &mut sp);
            for t in 0..n as u32 {
                if t <= s || sp.dist[t as usize] >= INF {
                    continue;
                }
                // Count, per interior vertex, the share of s-t paths.
                let mut through = vec![0.0; n];
                let mut paths = 0.0;
                let mut stack = vec![(t, vec![t])];
                while let Some((v, trail)) = stack.pop() {
                    if v == s {
                        paths += 1.0;
                        for &x in &trail {
                            if x != s && x != t {
                                through[x as usize] += 1.0;
                            }
                        }
                        continue;
                    }
                    for &p in &sp.preds[v as usize] {
                        let mut tr = trail.clone();
                        tr.push(p);
                        stack.push((p, tr));
                    }
                }
                for v in 0..n {
                    bc[v] += through[v] / paths;
                }
            }
        }
        bc
    }

    #[test]
    fn path_graph_closed_form() {
        // P5: BC(i) = i * (n-1-i).
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let bc = betweenness(&g);
        close(&bc, &[0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_takes_everything() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        let bc = betweenness(&g);
        close(&bc, &[6.0, 0.0, 0.0, 0.0, 0.0]); // C(4,2)
    }

    #[test]
    fn cycle_splits_ties_evenly() {
        // C4 with unit weights: antipodal pairs have two shortest paths.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let bc = betweenness(&g);
        close(&bc, &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn weighted_graph_prefers_light_routes() {
        // Square where one corner is expensive: all traffic hugs the cheap
        // side.
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 100)]);
        let bc = betweenness(&g);
        close(&bc, &brute(&g));
        assert!(bc[1] > 0.0 && bc[2] > 0.0);
        assert_eq!(bc[3], 0.0); // nothing routes through the heavy corner
    }

    #[test]
    fn random_graphs_match_brute_force() {
        for seed in 0..8u64 {
            let mut rng = ear_graph::rng::TestRng::warmed(seed);
            let n = rng.usize_in(4, 9);
            let mut edges = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.usize_in(n, 3 * n) {
                let u = rng.u32_in(0, n as u32);
                let v = rng.u32_in(0, n as u32);
                if u != v && seen.insert((u.min(v), u.max(v))) {
                    edges.push((u, v, rng.u64_in(1, 4)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            close(&betweenness(&g), &brute(&g));
        }
    }

    #[test]
    fn hetero_matches_sequential() {
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 2),
                (1, 2, 2),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 3),
                (5, 0, 2),
                (1, 4, 5),
            ],
        );
        let (bc, report) = betweenness_hetero(&g, &HeteroExecutor::cpu_gpu()).unwrap();
        close(&bc, &betweenness(&g));
        assert!(report.total_counters().edges_relaxed > 0);
    }

    /// Every entry point names the first zero-weight edge, by id.
    #[test]
    fn a_zero_weight_edge_is_refused() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 2, 0), (2, 3, 0)]);
        let want = ZeroWeightEdge {
            edge: 2,
            u: 1,
            v: 2,
        };
        let ones = [1.0; 4];
        assert_eq!(super::betweenness(&g), Err(want));
        assert_eq!(betweenness_weighted(&g, &[0], &ones, &ones), Err(want));
        let hetero = betweenness_hetero(&g, &HeteroExecutor::sequential());
        assert_eq!(hetero.map(|(bc, _)| bc), Err(want));
        assert_eq!(crate::betweenness_pendant_reduced(&g), Err(want));
        assert_eq!(
            want.to_string(),
            "betweenness needs positive weights: edge 2 (1-2) weighs 0"
        );
    }

    #[test]
    fn disconnected_components_are_independent() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let bc = betweenness(&g);
        close(&bc, &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }
}
