//! Base graph topologies.
//!
//! All generators are deterministic given a seed and produce simple
//! connected graphs with integer weights in `1..=max_w`.

use ear_graph::rng::TestRng;
use ear_graph::{CsrGraph, GraphBuilder, Weight};

/// Default weight range used across the suite.
pub const MAX_WEIGHT: Weight = 100;

pub(crate) fn w(rng: &mut TestRng) -> Weight {
    rng.u64_in(1, MAX_WEIGHT + 1)
}

/// Rectangular grid graph (`rows × cols`), 4-neighborhood.
pub fn grid(rows: usize, cols: usize, seed: u64) -> CsrGraph {
    let mut rng = TestRng::warmed(seed);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1), w(&mut rng));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c), w(&mut rng));
            }
        }
    }
    b.build()
}

/// Triangulated grid: a grid plus one diagonal per cell. Planar, average
/// degree ≈ 6, essentially no degree-2 vertices — the `delaunay_n15`
/// stand-in.
pub fn triangulated_grid(rows: usize, cols: usize, seed: u64) -> CsrGraph {
    let mut rng = TestRng::warmed(seed);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::with_capacity(rows * cols, 3 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1), w(&mut rng));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c), w(&mut rng));
            }
            if r + 1 < rows && c + 1 < cols {
                // Alternate the diagonal direction for a delaunay-ish mix.
                if (r + c) % 2 == 0 {
                    b.add_edge(idx(r, c), idx(r + 1, c + 1), w(&mut rng));
                } else {
                    b.add_edge(idx(r, c + 1), idx(r + 1, c), w(&mut rng));
                }
            }
        }
    }
    b.build()
}

/// Preferential attachment (Barabási–Albert flavoured): each new vertex
/// attaches to `attach` existing vertices sampled proportionally to
/// degree. Heavy-tailed, one giant biconnected core — the collaboration /
/// AS-topology stand-in.
pub fn power_law(n: usize, attach: usize, seed: u64) -> CsrGraph {
    assert!(n > attach && attach >= 1);
    let mut rng = TestRng::warmed(seed);
    let mut b = GraphBuilder::with_capacity(n, n * attach);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    // Seed clique on attach+1 vertices.
    for i in 0..=attach as u32 {
        for j in 0..i {
            b.add_edge(i, j, w(&mut rng));
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    for v in (attach as u32 + 1)..n as u32 {
        let mut chosen = std::collections::HashSet::new();
        let mut guard = 0;
        while chosen.len() < attach && guard < 50 * attach {
            let t = endpoints[rng.usize_in(0, endpoints.len())];
            if t != v {
                chosen.insert(t);
            }
            guard += 1;
        }
        // HashSet iteration order is nondeterministic; sort so the builder
        // output depends only on the seed.
        let mut chosen: Vec<u32> = chosen.into_iter().collect();
        chosen.sort_unstable();
        for t in chosen {
            b.add_edge(v, t, w(&mut rng));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Watts–Strogatz small world: ring lattice with `k` neighbours each side,
/// each edge rewired with probability `beta_pct`/100.
pub fn small_world(n: usize, k: usize, beta_pct: u32, seed: u64) -> CsrGraph {
    assert!(n > 2 * k && k >= 1);
    let mut rng = TestRng::warmed(seed);
    let mut seen = std::collections::HashSet::new();
    let mut b = GraphBuilder::with_capacity(n, n * k);
    for v in 0..n as u32 {
        for d in 1..=k as u32 {
            let mut t = (v + d) % n as u32;
            if rng.percent(beta_pct) {
                // Rewire to a uniform random target.
                let mut guard = 0;
                loop {
                    let cand = rng.u32_in(0, n as u32);
                    if cand != v && !seen.contains(&key(v, cand)) || guard > 20 {
                        t = cand;
                        break;
                    }
                    guard += 1;
                }
            }
            if t != v && seen.insert(key(v, t)) {
                b.add_edge(v, t, w(&mut rng));
            }
        }
    }
    b.build()
}

fn key(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Random connected graph with `m ≥ n−1` edges: a random spanning tree plus
/// uniform random extra edges (simple). The workhorse of the property-test
/// harness.
pub fn random_connected(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 1);
    let m = m.max(n.saturating_sub(1));
    let mut rng = TestRng::warmed(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut seen = std::collections::HashSet::new();
    // Random attachment tree.
    for v in 1..n as u32 {
        let t = rng.u32_in(0, v);
        seen.insert(key(v, t));
        b.add_edge(v, t, w(&mut rng));
    }
    let max_edges = n * (n - 1) / 2;
    let mut guard = 0;
    while b.m() < m.min(max_edges) && guard < 100 * m {
        let u = rng.u32_in(0, n as u32);
        let v = rng.u32_in(0, n as u32);
        if u != v && seen.insert(key(u, v)) {
            b.add_edge(u, v, w(&mut rng));
        }
        guard += 1;
    }
    b.build()
}

/// Random connected graph with minimum degree 3: the biconnected-core
/// builder behind the non-planar Table 1 specs (no native degree-2
/// vertices, so every degree-2 vertex later planted by subdivision is
/// accounted for exactly).
pub fn random_min_deg3(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 4, "need at least K4");
    let base = random_connected(n, m.max(2 * n), seed);
    let mut rng = TestRng::warmed(seed ^ 0x5eed);
    let mut edges: Vec<(u32, u32, Weight)> = base.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    let mut seen: std::collections::HashSet<(u32, u32)> =
        edges.iter().map(|&(u, v, _)| key(u, v)).collect();
    let mut deg = vec![0usize; n];
    for &(u, v, _) in &edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    for v in 0..n as u32 {
        let mut guard = 0;
        while deg[v as usize] < 3 && guard < 1000 {
            let t = rng.u32_in(0, n as u32);
            if t != v && seen.insert(key(v, t)) {
                edges.push((v, t, w(&mut rng)));
                deg[v as usize] += 1;
                deg[t as usize] += 1;
            }
            guard += 1;
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_graph::connected_components;

    #[test]
    fn grid_shape() {
        let g = grid(5, 7, 1);
        assert_eq!(g.n(), 35);
        assert_eq!(g.m(), 5 * 6 + 4 * 7);
        assert!(connected_components(&g).is_connected());
        assert!(g.is_simple());
    }

    #[test]
    fn triangulated_grid_has_no_degree_two_interior() {
        let g = triangulated_grid(10, 10, 2);
        let deg2 = (0..g.n() as u32).filter(|&v| g.degree(v) == 2).count();
        assert!(deg2 <= 4, "only corners may be degree 2, got {deg2}");
        assert!(connected_components(&g).is_connected());
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        let g = power_law(500, 3, 3);
        assert!(connected_components(&g).is_connected());
        assert!(g.is_simple());
        let max_deg = (0..g.n() as u32).map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(max_deg as f64 > 4.0 * avg, "max {max_deg} avg {avg}");
    }

    #[test]
    fn small_world_is_connected_and_simple() {
        let g = small_world(200, 3, 10, 4);
        assert!(g.is_simple());
        assert!(connected_components(&g).is_connected());
    }

    #[test]
    fn random_connected_hits_target_edges() {
        let g = random_connected(50, 120, 5);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 120);
        assert!(connected_components(&g).is_connected());
        assert!(g.is_simple());
    }

    #[test]
    fn random_min_deg3_has_min_degree_three() {
        let g = random_min_deg3(100, 250, 6);
        assert!((0..g.n() as u32).all(|v| g.degree(v) >= 3));
        assert!(connected_components(&g).is_connected());
        assert!(g.is_simple());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = power_law(100, 2, 42);
        let b = power_law(100, 2, 42);
        assert_eq!(a.edges(), b.edges());
        let c = power_law(100, 2, 43);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn weights_are_in_range() {
        let g = random_connected(30, 60, 7);
        assert!(g.edges().iter().all(|e| e.w >= 1 && e.w <= MAX_WEIGHT));
    }
}
