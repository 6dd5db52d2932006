//! De Pina's signed auxiliary-graph search (paper §3.2.1).
//!
//! To find the minimum-weight cycle non-orthogonal to a witness `S`, build
//! a two-layer graph: each vertex `x` splits into `x⁺` and `x⁻`; an edge
//! with `S(e) = 0` connects same-signed copies, an edge with `S(e) = 1`
//! crosses layers. A shortest `x⁺ → x⁻` path then corresponds to a minimum
//! closed walk through `x` with odd witness intersection; minimising over
//! `x` in a feedback vertex set (every cycle meets it) yields the global
//! minimum, and cancelling repeated edges mod 2 turns the walk into the
//! minimum cycle vector.
//!
//! Used two ways: as the *backstop* inside the de Pina phase loop whenever
//! the restricted candidate store has no non-orthogonal cycle left, and as
//! a standalone exact MCB ([`signed_mcb`]) for cross-validation.

use ear_decomp::fvs::feedback_vertex_set;
use ear_graph::{with_engine, CsrGraph, VertexId, Weight, INF};
use ear_hetero::WorkCounters;

use crate::cycle_space::{Cycle, CycleSpace, DenseBits};

/// Finds the minimum-weight cycle `C` with `⟨C, S⟩ = 1`, or `None` if no
/// cycle intersects the witness (impossible for de Pina witnesses, which
/// always admit the fundamental cycle of their lowest set bit).
pub fn min_cycle_nonorthogonal(
    g: &CsrGraph,
    cs: &CycleSpace,
    s: &DenseBits,
    roots: Option<&[VertexId]>,
    counters: &mut WorkCounters,
) -> Option<Cycle> {
    let n = g.n();
    // Build the signed graph: vertex x⁺ = x, x⁻ = x + n.
    let mut aux_edges: Vec<(u32, u32, Weight)> = Vec::with_capacity(2 * g.m());
    // aux edge index -> original edge id (two aux edges per original).
    let mut origin: Vec<u32> = Vec::with_capacity(2 * g.m());
    for e in 0..g.m() as u32 {
        let r = g.edge(e);
        let idx = cs.nt_index[e as usize];
        let crossing = idx != u32::MAX && s.get(idx as usize);
        if r.is_self_loop() {
            if crossing {
                aux_edges.push((r.u, r.u + n as u32, r.w));
                origin.push(e);
            }
            // A non-crossing self-loop cannot participate in any odd walk.
            continue;
        }
        if crossing {
            aux_edges.push((r.u, r.v + n as u32, r.w));
            origin.push(e);
            aux_edges.push((r.u + n as u32, r.v, r.w));
            origin.push(e);
        } else {
            aux_edges.push((r.u, r.v, r.w));
            origin.push(e);
            aux_edges.push((r.u + n as u32, r.v + n as u32, r.w));
            origin.push(e);
        }
    }
    let aux = CsrGraph::from_edges(2 * n, &aux_edges);

    let fallback_roots;
    let roots: &[VertexId] = match roots {
        Some(r) => r,
        None => {
            fallback_roots = feedback_vertex_set(g);
            &fallback_roots
        }
    };

    // One pooled engine serves every root: a cheap distances-only run per
    // root selects the winner, and a single tree run on the winning root
    // extracts the path (legacy built a full tree per root).
    let orig_edges = with_engine(|eng| {
        let mut best: Option<(Weight, VertexId)> = None;
        let mut row = vec![INF; aux.n()];
        for &x in roots {
            let stats = eng.run(aux.view(), x, &mut row);
            counters.edges_relaxed += stats.edges_relaxed;
            counters.vertices_settled += stats.settled;
            let d = row[x as usize + n];
            if d >= INF {
                continue;
            }
            if best.is_none_or(|(bw, _)| d < bw) {
                best = Some((d, x));
            }
        }
        best.map(|(_, x)| {
            // Path work for the winning root was already counted above;
            // the tree re-run is bookkeeping, not modelled device work.
            let t = eng.run_tree(aux.view(), x);
            let mut orig: Vec<u32> = Vec::new();
            let mut cur = x + n as u32;
            while cur != x {
                let ae = t.parent_edge[cur as usize];
                debug_assert_ne!(ae, u32::MAX);
                orig.push(origin[ae as usize]);
                cur = t.parent_vertex[cur as usize];
            }
            orig
        })
    });
    orig_edges.map(|edges| cs.cycle_from_edges(g, edges))
}

/// Exact MCB by pure de Pina with signed search in every phase — slower
/// than the candidate-restricted algorithm but with no tie-breaking
/// assumptions at all. Returns the basis cycles in selection order.
pub fn signed_mcb(g: &CsrGraph) -> Vec<Cycle> {
    let cs = CycleSpace::new(g);
    let f = cs.dim();
    let mut witnesses: Vec<DenseBits> = (0..f).map(|i| DenseBits::unit(f, i)).collect();
    let mut basis = Vec::with_capacity(f);
    let roots = feedback_vertex_set(g);
    let mut counters = WorkCounters::default();
    for i in 0..f {
        let c = min_cycle_nonorthogonal(g, &cs, &witnesses[i], Some(&roots), &mut counters)
            .expect("de Pina witness always admits a cycle");
        debug_assert!(
            witnesses[i].sparse_dot(&c.nt),
            "chosen cycle must hit witness"
        );
        for j in i + 1..f {
            if witnesses[j].sparse_dot(&c.nt) {
                let (a, b) = witnesses.split_at_mut(j);
                b[0].xor_assign(&a[i]);
            }
        }
        basis.push(c);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_weight(basis: &[Cycle]) -> Weight {
        basis.iter().map(|c| c.weight).sum()
    }

    #[test]
    fn triangle_basis() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0].weight, 6);
        assert_eq!(basis[0].edges.len(), 3);
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        // Outer square weight 8 must lose to the two triangles (4 + 4).
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 2), (2, 3, 1), (3, 1, 2)]);
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 2);
        assert_eq!(total_weight(&basis), 8);
    }

    #[test]
    fn k4_unit_weights() {
        let g = CsrGraph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
            ],
        );
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 3);
        assert_eq!(total_weight(&basis), 9); // three triangles
        assert!(basis.iter().all(|c| c.edges.len() == 3));
    }

    #[test]
    fn parallel_edges_and_self_loop() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 2), (0, 1, 3), (0, 0, 10)]);
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 2);
        // Best basis: parallel pair (5) + self-loop (10).
        assert_eq!(total_weight(&basis), 15);
    }

    #[test]
    fn disconnected_components() {
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
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 2);
        assert_eq!(total_weight(&basis), 9);
    }

    #[test]
    fn forest_has_empty_basis() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 1)]);
        assert!(signed_mcb(&g).is_empty());
    }

    #[test]
    fn heavy_chord_forces_big_cycles() {
        // A square with an expensive diagonal: basis should prefer the two
        // triangles only if the diagonal is cheap; here it is not.
        let g = CsrGraph::from_edges(
            4,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 100)],
        );
        let basis = signed_mcb(&g);
        assert_eq!(basis.len(), 2);
        // Best: square (4) + one triangle with the diagonal (102).
        assert_eq!(total_weight(&basis), 106);
    }
}
