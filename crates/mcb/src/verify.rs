//! Verification helpers: independence, dimension, cycle-ness.
//!
//! Five MCB implementations live in this crate (candidate-restricted de
//! Pina in four execution modes, signed de Pina, Horton, and the
//! ear-reduced pipeline); the property-test harness pins them against each
//! other *and* against these structural checks.

use ear_graph::{CsrGraph, EdgeId};

use crate::cycle_space::{Cycle, CycleSpace, Gf2Elimination};

/// GF(2) rank of the cycles' `E'` restrictions (Gaussian elimination over
/// dense bit vectors).
pub fn basis_rank(cs: &CycleSpace, cycles: &[Cycle]) -> usize {
    let mut kept = Gf2Elimination::default();
    for c in cycles {
        kept.insert(cs.to_dense(c));
    }
    kept.rank()
}

/// Checks that an edge set is a disjoint union of simple cycles — every
/// touched vertex has even degree and no edge repeats. (A cycle-space
/// member; single simple cycles additionally have all degrees exactly 2
/// and one connected component, which [`is_simple_cycle`] checks.)
pub fn is_cycle_vector(g: &CsrGraph, edges: &[EdgeId]) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut deg = std::collections::HashMap::<u32, u32>::new();
    for &e in edges {
        if !seen.insert(e) {
            return false;
        }
        let r = g.edge(e);
        if r.is_self_loop() {
            continue; // a self-loop is itself a cycle; contributes evenly
        }
        *deg.entry(r.u).or_insert(0) += 1;
        *deg.entry(r.v).or_insert(0) += 1;
    }
    deg.values().all(|&d| d % 2 == 0)
}

/// Checks that an edge set forms one simple cycle: connected, every vertex
/// degree exactly two (or a single self-loop).
pub fn is_simple_cycle(g: &CsrGraph, edges: &[EdgeId]) -> bool {
    if edges.is_empty() {
        return false;
    }
    if edges.len() == 1 {
        return g.edge(edges[0]).is_self_loop();
    }
    let mut deg = std::collections::HashMap::<u32, u32>::new();
    let mut seen = std::collections::HashSet::new();
    for &e in edges {
        if !seen.insert(e) {
            return false;
        }
        let r = g.edge(e);
        if r.is_self_loop() {
            return false;
        }
        *deg.entry(r.u).or_insert(0) += 1;
        *deg.entry(r.v).or_insert(0) += 1;
    }
    if !deg.values().all(|&d| d == 2) {
        return false;
    }
    // Connectivity: walk the cycle from one endpoint.
    let mut adj = std::collections::HashMap::<u32, Vec<EdgeId>>::new();
    for &e in edges {
        let r = g.edge(e);
        adj.entry(r.u).or_default().push(e);
        adj.entry(r.v).or_default().push(e);
    }
    let start = g.edge(edges[0]).u;
    let mut visited_edges = std::collections::HashSet::new();
    let mut stack = vec![start];
    let mut visited_v = std::collections::HashSet::new();
    while let Some(v) = stack.pop() {
        if !visited_v.insert(v) {
            continue;
        }
        for &e in &adj[&v] {
            if visited_edges.insert(e) {
                stack.push(g.edge(e).other(v));
            }
        }
    }
    visited_edges.len() == edges.len()
}

/// Full basis check: correct dimension, full rank, every member a valid
/// cycle vector. Returns a description of the first violation.
pub fn verify_basis(g: &CsrGraph, cycles: &[Cycle]) -> Result<(), String> {
    let cs = CycleSpace::new(g);
    let f = cs.dim();
    if cycles.len() != f {
        return Err(format!(
            "dimension mismatch: got {} cycles, expected {f}",
            cycles.len()
        ));
    }
    for (i, c) in cycles.iter().enumerate() {
        if !is_cycle_vector(g, &c.edges) {
            return Err(format!("member {i} is not a cycle vector"));
        }
        let w: u64 = c.edges.iter().map(|&e| g.weight(e)).sum();
        if w != c.weight {
            return Err(format!(
                "member {i} weight mismatch: stored {} real {w}",
                c.weight
            ));
        }
    }
    let rank = basis_rank(&cs, cycles);
    if rank != f {
        return Err(format!("rank {rank} < dimension {f}: not independent"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> CsrGraph {
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
        )
    }

    #[test]
    fn rank_of_independent_triangles() {
        let g = k4();
        let cs = CycleSpace::new(&g);
        // Triangles 0-1-2 (edges 0,3,1) and 0-1-3 (edges 0,4,2).
        let c1 = cs.cycle_from_edges(&g, vec![0, 3, 1]);
        let c2 = cs.cycle_from_edges(&g, vec![0, 4, 2]);
        assert_eq!(basis_rank(&cs, &[c1.clone(), c2.clone()]), 2);
        // A cycle plus itself stays rank 1.
        assert_eq!(basis_rank(&cs, &[c1.clone(), c1]), 1);
    }

    #[test]
    fn dependent_triple_is_rank_two() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 0, 2), (2, 3, 1), (3, 1, 2)]);
        let cs = CycleSpace::new(&g);
        let t1 = cs.cycle_from_edges(&g, vec![0, 1, 2]);
        let t2 = cs.cycle_from_edges(&g, vec![1, 3, 4]);
        // Symmetric difference (outer square).
        let sq = cs.cycle_from_edges(&g, vec![0, 2, 3, 4]);
        assert_eq!(basis_rank(&cs, &[t1, t2, sq]), 2);
    }

    #[test]
    fn cycle_vector_checks() {
        let g = k4();
        assert!(is_cycle_vector(&g, &[0, 3, 1]));
        assert!(!is_cycle_vector(&g, &[0, 3])); // open path
        assert!(!is_cycle_vector(&g, &[0, 0, 3, 1])); // repeated edge
                                                      // Union of two edge-disjoint triangles is a valid vector but not a
                                                      // simple cycle.
        let g2 = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
        );
        assert!(is_cycle_vector(&g2, &[0, 1, 2, 3, 4, 5]));
        assert!(!is_simple_cycle(&g2, &[0, 1, 2, 3, 4, 5]));
        assert!(is_simple_cycle(&g2, &[0, 1, 2]));
    }

    #[test]
    fn self_loop_is_a_simple_cycle() {
        let g = CsrGraph::from_edges(1, &[(0, 0, 5)]);
        assert!(is_simple_cycle(&g, &[0]));
        assert!(is_cycle_vector(&g, &[0]));
    }

    #[test]
    fn verify_basis_accepts_signed_mcb() {
        let g = k4();
        let basis = crate::signed::signed_mcb(&g);
        verify_basis(&g, &basis).unwrap();
    }

    #[test]
    fn verify_basis_rejects_wrong_dimension() {
        let g = k4();
        let mut basis = crate::signed::signed_mcb(&g);
        basis.pop();
        assert!(verify_basis(&g, &basis).is_err());
    }

    #[test]
    fn verify_basis_rejects_dependent_set() {
        let g = k4();
        let mut basis = crate::signed::signed_mcb(&g);
        let dup = basis[0].clone();
        basis.pop();
        basis.push(dup);
        assert!(verify_basis(&g, &basis).is_err());
    }
}
