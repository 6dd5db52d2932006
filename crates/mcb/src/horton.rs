//! Horton's original MCB algorithm (paper §3.2, Horton 1987).
//!
//! Generate the fundamental cycles of the shortest-path tree from *every*
//! vertex (`n·(m−n+1)` candidates), sort by weight, and greedily keep each
//! cycle that is GF(2)-independent of those already kept, until `f` are
//! found. Polynomial but heavy — the first polynomial MCB algorithm, used
//! here as the historically-faithful baseline and as another independent
//! oracle for cross-validation.

use ear_graph::{with_engine, CsrGraph, Weight};

use crate::cycle_space::{Cycle, CycleSpace, Gf2Elimination};

/// Computes an MCB with Horton's algorithm. Returns the chosen cycles in
/// weight order.
pub fn horton_mcb(g: &CsrGraph) -> Vec<Cycle> {
    let cs = CycleSpace::new(g);
    let f = cs.dim();
    if f == 0 {
        return Vec::new();
    }

    // Candidate generation from every vertex; one pooled engine is held
    // across the whole n-source sweep.
    let mut cands: Vec<Cycle> = Vec::new();
    let mut seen = std::collections::HashSet::<(Weight, Vec<u32>)>::new();
    with_engine(|eng| {
        for z in 0..g.n() as u32 {
            let t = eng.run_tree(g.view(), z);
            for e in 0..g.m() as u32 {
                let r = g.edge(e);
                if r.is_self_loop() {
                    if r.u == z {
                        let c = cs.cycle_from_edges(g, vec![e]);
                        if seen.insert((c.weight, c.nt.clone())) {
                            cands.push(c);
                        }
                    }
                    continue;
                }
                if !t.reachable(r.u) || !t.reachable(r.v) {
                    continue;
                }
                if t.parent_edge[r.u as usize] == e || t.parent_edge[r.v as usize] == e {
                    continue;
                }
                let mut edges = t.path_edges_to_root(r.u).unwrap();
                edges.extend(t.path_edges_to_root(r.v).unwrap());
                edges.push(e);
                let c = cs.cycle_from_edges(g, edges);
                if c.edges.is_empty() {
                    continue; // paths fully overlapped: no cycle through z
                }
                if seen.insert((c.weight, c.nt.clone())) {
                    cands.push(c);
                }
            }
        }
    });
    cands.sort_by(|a, b| (a.weight, &a.nt).cmp(&(b.weight, &b.nt)));

    // Greedy independence filter (Gaussian elimination over E').
    let mut basis: Vec<Cycle> = Vec::with_capacity(f);
    let mut kept = Gf2Elimination::default();
    for c in cands {
        if basis.len() == f {
            break;
        }
        if kept.insert(cs.to_dense(&c)) {
            basis.push(c);
        }
    }
    assert_eq!(basis.len(), f, "Horton set must span the cycle space");
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::signed_mcb;
    use crate::verify::verify_basis;

    fn weight(basis: &[Cycle]) -> Weight {
        basis.iter().map(|c| c.weight).sum()
    }

    #[test]
    fn matches_signed_on_small_graphs() {
        let graphs = vec![
            CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]),
            CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 2), (2, 3, 1), (3, 1, 2)]),
            CsrGraph::from_edges(
                4,
                &[
                    (0, 1, 1),
                    (0, 2, 1),
                    (0, 3, 1),
                    (1, 2, 1),
                    (1, 3, 1),
                    (2, 3, 1),
                ],
            ),
            CsrGraph::from_edges(
                5,
                &[
                    (0, 1, 3),
                    (1, 2, 5),
                    (2, 3, 7),
                    (3, 4, 9),
                    (4, 0, 2),
                    (1, 3, 4),
                    (0, 2, 8),
                ],
            ),
        ];
        for g in graphs {
            let h = horton_mcb(&g);
            let s = signed_mcb(&g);
            assert_eq!(weight(&h), weight(&s), "graph m={}", g.m());
            verify_basis(&g, &h).unwrap();
        }
    }

    #[test]
    fn multigraph_with_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 0, 1), (2, 2, 4)]);
        let h = horton_mcb(&g);
        let s = signed_mcb(&g);
        assert_eq!(weight(&h), weight(&s));
        verify_basis(&g, &h).unwrap();
    }

    #[test]
    fn empty_and_forest_graphs() {
        assert!(horton_mcb(&CsrGraph::from_edges(0, &[])).is_empty());
        assert!(horton_mcb(&CsrGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)])).is_empty());
    }
}
