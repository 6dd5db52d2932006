//! Structure editors that steer a base graph towards a Table 1 row.

use ear_graph::rng::TestRng;
use ear_graph::{CsrGraph, EdgeId, Weight};

/// Subdivides `count` edges, inserting `chain_len` degree-2 vertices into
/// each — the direct control for the paper's "Nodes Removed (%)" column.
/// The chain's segment weights sum to the original edge weight (each at
/// least 1), so subdivision changes no shortest-path distance between
/// original vertices and preserves planarity and biconnectivity.
pub fn subdivide_edges(g: &CsrGraph, count: usize, chain_len: usize, seed: u64) -> CsrGraph {
    assert!(chain_len >= 1);
    let mut rng = TestRng::warmed(seed);
    // Only edges heavy enough to split into chain_len+1 positive segments
    // are eligible — subdividing lighter ones would inflate distances.
    let mut picks: Vec<EdgeId> = (0..g.m() as u32)
        .filter(|&e| g.weight(e) > chain_len as u64)
        .collect();
    rng.shuffle(&mut picks);
    picks.truncate(count.min(picks.len()));
    let chosen: std::collections::HashSet<EdgeId> = picks.into_iter().collect();

    let mut edges: Vec<(u32, u32, Weight)> = Vec::with_capacity(g.m() + count * chain_len);
    let mut next = g.n() as u32;
    for e in 0..g.m() as u32 {
        let r = g.edge(e);
        if !chosen.contains(&e) {
            edges.push((r.u, r.v, r.w));
            continue;
        }
        // Split w into chain_len+1 positive integer segments.
        let segs = chain_len as u64 + 1;
        let base = (r.w / segs).max(1);
        let mut remaining = r.w.saturating_sub(base * (segs - 1)).max(1);
        let mut prev = r.u;
        for _ in 0..chain_len {
            let x = next;
            next += 1;
            edges.push((prev, x, base));
            prev = x;
        }
        if remaining == 0 {
            remaining = 1;
        }
        edges.push((prev, r.v, remaining));
    }
    CsrGraph::from_edges(next as usize, &edges)
}

/// Attaches `count` pendant (degree-1) vertices at random hosts. Each
/// pendant edge is its own biconnected component, so this raises the BCC
/// count by `count` while adding no cycles — the Banerjee-style pendant
/// population of the collaboration graphs.
pub fn attach_pendants(g: &CsrGraph, count: usize, seed: u64) -> CsrGraph {
    let mut rng = TestRng::warmed(seed);
    let mut edges: Vec<(u32, u32, Weight)> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    let mut next = g.n() as u32;
    for _ in 0..count {
        let host = rng.u32_in(0, next); // pendants can chain off pendants
        edges.push((host, next, crate::generators::w(&mut rng)));
        next += 1;
    }
    CsrGraph::from_edges(next as usize, &edges)
}

/// Attaches `count` satellite blocks — small cycles of `size ≥ 3` vertices
/// sharing one (articulation) vertex with the host graph. Each satellite
/// adds exactly one biconnected component with `size` edges.
pub fn attach_satellite_blocks(g: &CsrGraph, count: usize, size: usize, seed: u64) -> CsrGraph {
    assert!(size >= 3);
    let mut rng = TestRng::warmed(seed);
    let mut edges: Vec<(u32, u32, Weight)> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    let mut next = g.n() as u32;
    let host_max = g.n() as u32;
    for _ in 0..count {
        let host = rng.u32_in(0, host_max);
        let ring: Vec<u32> = std::iter::once(host)
            .chain((0..size as u32 - 1).map(|i| next + i))
            .collect();
        next += size as u32 - 1;
        for i in 0..ring.len() {
            let a = ring[i];
            let b = ring[(i + 1) % ring.len()];
            edges.push((a, b, crate::generators::w(&mut rng)));
        }
    }
    CsrGraph::from_edges(next as usize, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_min_deg3, triangulated_grid};
    use ear_decomp::plan::DecompPlan;
    use ear_graph::{connected_components, dijkstra};

    #[test]
    fn subdivision_adds_exact_degree_two_population() {
        let g = random_min_deg3(50, 150, 1);
        let sub = subdivide_edges(&g, 40, 2, 2);
        assert_eq!(sub.n(), g.n() + 80);
        assert_eq!(sub.m(), g.m() + 80);
        let deg2 = (0..sub.n() as u32).filter(|&v| sub.degree(v) == 2).count();
        assert_eq!(deg2, 80);
    }

    #[test]
    fn subdivision_preserves_distances_between_original_vertices() {
        let g = random_min_deg3(30, 90, 3);
        let sub = subdivide_edges(&g, 20, 3, 4);
        for s in [0u32, 7, 13] {
            let d0 = dijkstra(&g, s);
            let d1 = dijkstra(&sub, s);
            for v in 0..g.n() {
                assert_eq!(d0[v], d1[v], "source {s} target {v}");
            }
        }
    }

    #[test]
    fn subdivision_preserves_connectivity_and_simplicity() {
        let g = triangulated_grid(6, 6, 5);
        let sub = subdivide_edges(&g, g.m(), 1, 6);
        assert!(connected_components(&sub).is_connected());
        assert!(sub.is_simple());
    }

    #[test]
    fn pendants_raise_bcc_count_linearly() {
        let g = random_min_deg3(20, 60, 7);
        let before = DecompPlan::build(&g).n_blocks();
        let aug = attach_pendants(&g, 15, 8);
        let after = DecompPlan::build(&aug).n_blocks();
        assert_eq!(after, before + 15);
        assert!(connected_components(&aug).is_connected());
    }

    #[test]
    fn satellites_raise_bcc_count_and_stay_connected() {
        let g = random_min_deg3(20, 60, 9);
        let before = DecompPlan::build(&g).n_blocks();
        let aug = attach_satellite_blocks(&g, 10, 4, 10);
        let after = DecompPlan::build(&aug).n_blocks();
        assert_eq!(after, before + 10);
        assert_eq!(aug.n(), g.n() + 10 * 3);
        assert_eq!(aug.m(), g.m() + 10 * 4);
        assert!(connected_components(&aug).is_connected());
    }

    #[test]
    fn subdivided_weights_are_preserved_in_total() {
        let g = random_min_deg3(20, 60, 11);
        let total = g.total_weight();
        let sub = subdivide_edges(&g, 30, 2, 12);
        // Each subdivided edge's chain sums to at least the original weight
        // (exactly, except when w < segments forces minimum-1 segments).
        assert!(sub.total_weight() >= total);
    }
}
