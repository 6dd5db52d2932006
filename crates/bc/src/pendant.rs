//! Pendant-tree reduction for betweenness centrality.
//!
//! Pendant trees route all of their traffic through their attachment root,
//! so their contributions to betweenness are available in closed form:
//! Brandes only needs to run on the 1-core, with vertex *masses* standing
//! in for the peeled populations. This is the same structural-compression
//! idea the paper applies to APSP (remove what carries no routing choice,
//! account for it in post-processing), applied to the neighbouring
//! path-based problem its conclusions point at.
//!
//! Exact decomposition, per connected component of size `N`:
//!
//! * **core ↔ core traffic** — weighted Brandes on the core, source and
//!   target masses `w_r = 1 + b(r)` (`b(r)` = peeled vertices rooted at
//!   `r`); credits interior core vertices;
//! * **root gateway** — every pair (tree vertex of `r`, anything outside
//!   `r`'s tree) passes `r`: credit `b(r) · (N − w_r)`;
//! * **tree separators** — a peeled `x` with subtree size `sub(x)` lies on
//!   every path between its subtree and the rest: credit
//!   `(sub(x)−1) · (N − sub(x))`;
//! * **branch junctions** — pairs in different child subtrees of any `y`
//!   meet at `y`: credit `Σ_{i<j} sub(cᵢ)·sub(cⱼ)`.
//!
//! All shares are 1 (tree paths are unique), so no σ-fractions appear
//! outside the core Brandes.
//!
//! The peel itself is the Banerjee et al. degree-1 removal (paper §2.4.3:
//! "it initially removes vertices of degree-1 from the graph. It then
//! checks if the degree of any vertices adjacent to the vertices removed
//! in the first iteration, degenerates to 1"), iterated until the 1-core
//! remains.

use ear_graph::{connected_components, induced_subgraph, CsrGraph, VertexId};

use crate::brandes::betweenness_weighted;

/// Result of the peel: the 1-core and the pendant forests hanging off it.
struct PendantPeel {
    /// `true` for vertices that survive (the 1-core).
    in_core: Vec<bool>,
    /// Tree parent of each peeled vertex (one hop toward the core;
    /// `u32::MAX` for core vertices).
    parent: Vec<VertexId>,
    /// Peeled vertices in removal order — children always precede their
    /// parents, which makes subtree aggregation a single forward sweep.
    peel_order: Vec<VertexId>,
}

/// Iteratively removes degree-1 vertices.
///
/// Whole-tree components keep exactly one vertex in core (the last
/// survivor), so every peeled vertex's parent chain ends in the core.
fn peel_pendants(g: &CsrGraph) -> PendantPeel {
    let n = g.n();
    let mut deg: Vec<u32> = (0..n as u32)
        .map(|v| g.neighbors(v).iter().filter(|&&(w, _)| w != v).count() as u32)
        .collect();
    let mut in_core = vec![true; n];
    let mut queue: Vec<VertexId> = (0..n as u32).filter(|&v| deg[v as usize] == 1).collect();
    let mut next_round: Vec<VertexId> = Vec::new();
    let mut parent = vec![u32::MAX; n];
    let mut peel_order: Vec<VertexId> = Vec::new();

    while !queue.is_empty() {
        for &v in &queue {
            if !in_core[v as usize] || deg[v as usize] != 1 {
                continue;
            }
            // The unique live neighbor.
            let Some(&(u, _)) = g
                .neighbors(v)
                .iter()
                .find(|&&(u, _)| u != v && in_core[u as usize])
            else {
                continue;
            };
            in_core[v as usize] = false;
            peel_order.push(v);
            parent[v as usize] = u;
            deg[u as usize] -= 1;
            if deg[u as usize] == 1 {
                next_round.push(u);
            }
        }
        queue = std::mem::take(&mut next_round);
    }

    PendantPeel {
        in_core,
        parent,
        peel_order,
    }
}

/// Exact betweenness via pendant-tree reduction. Equals
/// [`crate::betweenness`] on every graph (property-tested) while running
/// Brandes only on the 1-core.
pub fn betweenness_pendant_reduced(g: &CsrGraph) -> Vec<f64> {
    let n = g.n();
    let peel = peel_pendants(g);
    let comps = connected_components(g);
    let comp_size: Vec<usize> = {
        let mut sizes = vec![0usize; comps.count];
        for &c in &comps.comp {
            sizes[c as usize] += 1;
        }
        sizes
    };
    let comp_n = |v: VertexId| comp_size[comps.comp[v as usize] as usize] as f64;

    // Subtree sizes of peeled vertices and per-vertex branch sums; one
    // forward sweep in peel order (children precede parents).
    let mut sub = vec![0.0f64; n];
    for &x in &peel.peel_order {
        sub[x as usize] = 1.0;
    }
    let mut b = vec![0.0f64; n]; // peeled mass rooted at a core vertex
    let mut sum1 = vec![0.0f64; n];
    let mut sum2 = vec![0.0f64; n];
    // First pass: accumulate children into parents bottom-up. peel_order
    // guarantees every child is processed before its parent is peeled, but
    // a parent may appear later in the order, so accumulate sub lazily.
    for &x in &peel.peel_order {
        let p = peel.parent[x as usize];
        let sx = sub[x as usize];
        sum1[p as usize] += sx;
        sum2[p as usize] += sx * sx;
        if peel.in_core[p as usize] {
            b[p as usize] += sx;
        } else {
            sub[p as usize] += sx;
        }
    }

    let mut bc = vec![0.0f64; n];
    // Tree separator + branch junction terms.
    for &x in &peel.peel_order {
        let nn = comp_n(x);
        let sx = sub[x as usize];
        bc[x as usize] += (sx - 1.0) * (nn - sx);
        bc[x as usize] += 0.5 * (sum1[x as usize] * sum1[x as usize] - sum2[x as usize]);
    }
    // Root gateway + junction terms for core vertices.
    for v in 0..n as u32 {
        if !peel.in_core[v as usize] {
            continue;
        }
        let nn = comp_n(v);
        let w_v = 1.0 + b[v as usize];
        bc[v as usize] += b[v as usize] * (nn - w_v);
        bc[v as usize] += 0.5 * (sum1[v as usize] * sum1[v as usize] - sum2[v as usize]);
    }

    // Core ↔ core traffic: weighted Brandes on the induced 1-core.
    let core: Vec<VertexId> = (0..n as u32)
        .filter(|&v| peel.in_core[v as usize])
        .collect();
    if !core.is_empty() {
        let (cg, map) = induced_subgraph(g, &core);
        let w: Vec<f64> = (0..cg.n() as u32)
            .map(|l| 1.0 + b[map.parent(l) as usize])
            .collect();
        let sources: Vec<VertexId> = (0..cg.n() as u32).collect();
        let core_bc = betweenness_weighted(&cg, &sources, &w, &w);
        for (l, val) in core_bc.into_iter().enumerate() {
            bc[map.parent(l as u32) as usize] += val;
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::betweenness;

    fn close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-7, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn peel_triangle_with_tail() {
        // triangle 0-1-2 with tail 2-3-4.
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 5), (3, 4, 7)]);
        let p = peel_pendants(&g);
        assert_eq!(p.peel_order, vec![4, 3]);
        assert!(p.in_core[0] && p.in_core[1] && p.in_core[2]);
        assert!(!p.in_core[3] && !p.in_core[4]);
        assert_eq!(p.parent[3], 2);
        assert_eq!(p.parent[4], 3);
        assert_eq!(p.parent[2], u32::MAX);
    }

    #[test]
    fn peel_pure_tree_keeps_one_survivor() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1)]);
        let p = peel_pendants(&g);
        assert_eq!(p.peel_order.len(), 4);
        assert_eq!(p.in_core.iter().filter(|&&c| c).count(), 1);
        // Every peeled vertex's parent chain ends at the survivor, and
        // each parent is peeled after its child.
        let survivor = (0..5u32).find(|&v| p.in_core[v as usize]).unwrap();
        let pos = |v: VertexId| p.peel_order.iter().position(|&x| x == v);
        for &v in &p.peel_order {
            let mut cur = v;
            while !p.in_core[cur as usize] {
                let up = p.parent[cur as usize];
                if let Some(i) = pos(up) {
                    assert!(pos(cur).unwrap() < i, "{cur} peels before its parent {up}");
                }
                cur = up;
            }
            assert_eq!(cur, survivor);
        }
    }

    #[test]
    fn peel_cycle_has_nothing_to_peel() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let p = peel_pendants(&g);
        assert!(p.peel_order.is_empty());
        assert!(p.in_core.iter().all(|&c| c));
    }

    #[test]
    fn peel_isolated_vertices_stay_in_core() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1)]);
        let p = peel_pendants(&g);
        assert!(p.in_core[2]);
        // The 0-1 edge: one endpoint peels, one survives.
        assert_eq!(p.peel_order.len(), 1);
    }

    #[test]
    fn triangle_with_tail() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 5), (3, 4, 7)]);
        close(&betweenness_pendant_reduced(&g), &betweenness(&g));
    }

    /// A triangle plus a 100 000-vertex path whose ids fall away from the
    /// triangle: one peel round per path vertex, and a parent chain as
    /// long as the path. Nothing in the reduction may recurse along it
    /// (a recursive root resolution overflowed the stack here).
    #[test]
    fn long_pendant_path_with_descending_ids() {
        let n = 100_000u32;
        let mut edges = vec![(n - 1, n - 2, 1), (n - 2, n - 3, 1), (n - 3, n - 1, 1)];
        edges.extend((0..n - 3).map(|i| (i + 1, i, 1)));
        let g = CsrGraph::from_edges(n as usize, &edges);
        let bc = betweenness_pendant_reduced(&g);
        // Tail vertex x has the subtree {0..=x}, so sub(x) = x + 1 and the
        // separator credit is (sub(x) − 1)·(N − sub(x)).
        let nn = n as f64;
        for x in [0u32, 1, 12_345, n / 2, n - 4] {
            let sub = x as f64 + 1.0;
            assert_eq!(bc[x as usize], (sub - 1.0) * (nn - sub), "vertex {x}");
        }
    }

    #[test]
    fn pure_tree() {
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (1, 3, 1),
                (3, 4, 2),
                (3, 5, 2),
                (0, 6, 1),
            ],
        );
        close(&betweenness_pendant_reduced(&g), &betweenness(&g));
    }

    #[test]
    fn star_of_paths() {
        // Hub with three legs of length 3 — deep pendant chains.
        let mut edges = vec![];
        let mut next = 1u32;
        for _ in 0..3 {
            edges.push((0, next, 1));
            edges.push((next, next + 1, 1));
            edges.push((next + 1, next + 2, 1));
            next += 3;
        }
        let g = CsrGraph::from_edges(10, &edges);
        close(&betweenness_pendant_reduced(&g), &betweenness(&g));
    }

    #[test]
    fn weighted_core_with_trees() {
        let g = CsrGraph::from_edges(
            9,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 1),
                (3, 0, 2),
                (0, 2, 4),
                // trees
                (1, 4, 1),
                (4, 5, 2),
                (4, 6, 3),
                (3, 7, 1),
                (7, 8, 1),
            ],
        );
        close(&betweenness_pendant_reduced(&g), &betweenness(&g));
    }

    #[test]
    fn disconnected_mixture() {
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 1),
                (4, 5, 1),
                (5, 6, 1),
                (5, 7, 1),
            ],
        );
        close(&betweenness_pendant_reduced(&g), &betweenness(&g));
    }

    /// The reduction is exact on arbitrary simple graphs (seeded sweep;
    /// the richer strategy-driven version lives in `ear-testkit`'s
    /// integration tests).
    #[test]
    fn matches_plain_brandes_on_random_graphs() {
        for case in 0..48u64 {
            let mut rng = ear_graph::rng::TestRng::warmed(0xbc0 + case);
            let n = rng.usize_in(2, 20);
            let mut seen = std::collections::HashSet::new();
            let mut edges: Vec<(u32, u32, u64)> = Vec::new();
            for _ in 0..rng.usize_in(0, 50) {
                let u = rng.u32_in(0, n as u32);
                let v = rng.u32_in(0, n as u32);
                if u != v && seen.insert((u.min(v), u.max(v))) {
                    edges.push((u, v, rng.u64_in(1, 6)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let a = betweenness_pendant_reduced(&g);
            let b = betweenness(&g);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!((x - y).abs() < 1e-7, "case {case} vertex {i}: {x} vs {y}");
            }
        }
    }
}
