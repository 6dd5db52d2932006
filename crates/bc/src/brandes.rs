//! Brandes' betweenness centrality for weighted graphs, with optional
//! vertex multiplicities (the hook the pendant reduction uses).
//!
//! Betweenness of `v`: `Σ_{s≠v≠t} σ_st(v)/σ_st` over unordered pairs,
//! where `σ_st` counts shortest `s–t` paths. Computed with one
//! Dijkstra-with-path-counting per source plus the backward dependency
//! accumulation; sources fan out as workunits exactly like the paper's
//! APSP Phase II.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ear_graph::{CsrGraph, VertexId, Weight, INF};
use ear_hetero::{ExecutionReport, HeteroExecutor, RunOutput, WorkCounters};

/// Reusable per-source shortest-path-DAG scratch: distances, path counts,
/// predecessor lists (which keep their capacity across sources — the
/// dominant allocation of the old per-call version), settle order, and the
/// heap. Reset is O(touched): only vertices settled by the previous run
/// are cleared.
#[derive(Default)]
struct BcScratch {
    dist: Vec<Weight>,
    sigma: Vec<f64>,
    preds: Vec<Vec<VertexId>>,
    done: Vec<bool>,
    /// Vertices in settle order (non-decreasing distance).
    order: Vec<VertexId>,
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
    stats: WorkCounters,
}

impl BcScratch {
    /// Clears the previous run's footprint and grows arrays to `n`.
    fn begin(&mut self, n: usize) {
        // Every written entry belongs to a settled vertex (a vertex is only
        // touched when strictly improved, which pushes it, so it settles).
        for &v in &self.order {
            let vi = v as usize;
            self.dist[vi] = INF;
            self.sigma[vi] = 0.0;
            self.preds[vi].clear();
            self.done[vi] = false;
        }
        self.order.clear();
        self.heap.clear();
        self.stats = WorkCounters::default();
        if self.dist.len() < n {
            self.dist.resize(n, INF);
            self.sigma.resize(n, 0.0);
            self.preds.resize_with(n, Vec::new);
            self.done.resize(n, false);
        }
    }
}

fn count_paths(g: &CsrGraph, s: VertexId, sc: &mut BcScratch) {
    sc.begin(g.n());
    sc.dist[s as usize] = 0;
    sc.sigma[s as usize] = 1.0;
    sc.heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = sc.heap.pop() {
        if sc.done[u as usize] {
            continue;
        }
        sc.done[u as usize] = true;
        sc.order.push(u);
        sc.stats.vertices_settled += 1;
        for &(v, e) in g.neighbors(u) {
            sc.stats.edges_relaxed += 1;
            if v == u {
                continue;
            }
            let nd = d + g.weight(e);
            if nd < sc.dist[v as usize] {
                sc.dist[v as usize] = nd;
                sc.sigma[v as usize] = sc.sigma[u as usize];
                sc.preds[v as usize].clear();
                sc.preds[v as usize].push(u);
                sc.heap.push(Reverse((nd, v)));
            } else if nd == sc.dist[v as usize] {
                // A second shortest route into v (weights are >= 1, so u is
                // settled and sigma[u] is final here).
                sc.sigma[v as usize] += sc.sigma[u as usize];
                sc.preds[v as usize].push(u);
            }
        }
    }
}

// Per-thread scratch (an `ear_graph::pool`), so warm scratch survives the
// scoped worker threads of each parallel region.
ear_graph::scratch_pool! {
    fn with_scratch(BcScratch, bound = 64);
}

/// Dependency accumulation from one source: returns `δ_s(v)` for all `v`,
/// where targets carry weight `target_w[t]` (classic Brandes is all-ones).
fn dependencies(g: &CsrGraph, s: VertexId, target_w: &[f64]) -> (Vec<f64>, WorkCounters) {
    with_scratch(|sc| {
        count_paths(g, s, sc);
        let n = g.n();
        let mut delta = vec![0.0; n];
        let mut stats = sc.stats;
        for &v in sc.order.iter().rev() {
            if v == s || sc.dist[v as usize] >= INF {
                continue;
            }
            let coeff = (target_w[v as usize] + delta[v as usize]) / sc.sigma[v as usize];
            for &u in &sc.preds[v as usize] {
                delta[u as usize] += sc.sigma[u as usize] * coeff;
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
pub fn betweenness_weighted(
    g: &CsrGraph,
    sources: &[VertexId],
    source_w: &[f64],
    target_w: &[f64],
) -> Vec<f64> {
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
    bc
}

/// Exact betweenness centrality of every vertex (unordered pairs).
///
/// ```
/// use ear_bc::betweenness;
/// use ear_graph::CsrGraph;
/// // Path 0-1-2: the middle vertex carries the single cross pair.
/// let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
/// assert_eq!(betweenness(&g), vec![0.0, 1.0, 0.0]);
/// ```
pub fn betweenness(g: &CsrGraph) -> Vec<f64> {
    let ones = vec![1.0; g.n()];
    let sources: Vec<VertexId> = (0..g.n() as u32).collect();
    betweenness_weighted(g, &sources, &ones, &ones)
}

/// Betweenness with per-source workunits on the heterogeneous executor —
/// the same scheduling shape as the paper's APSP Phase II, with the same
/// modelled report.
pub fn betweenness_hetero(g: &CsrGraph, exec: &HeteroExecutor) -> (Vec<f64>, ExecutionReport) {
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
    (bc, report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut sp = BcScratch::default();
        for s in 0..n as u32 {
            count_paths(g, s, &mut sp);
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
        let (bc, report) = betweenness_hetero(&g, &HeteroExecutor::cpu_gpu());
        close(&bc, &betweenness(&g));
        assert!(report.total_counters().edges_relaxed > 0);
    }

    #[test]
    fn disconnected_components_are_independent() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let bc = betweenness(&g);
        close(&bc, &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }
}
