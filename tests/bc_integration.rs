//! Integration tests for betweenness centrality against the workload
//! generators and the heterogeneous executor.

use ear_bc::{betweenness, betweenness_hetero, betweenness_pendant_reduced};
use ear_hetero::HeteroExecutor;
use ear_testkit::{cactus_graphs, forall, invariants, simple_graphs};
use ear_workloads::combinators::{attach_pendants, subdivide_edges};
use ear_workloads::generators::{random_min_deg3, triangulated_grid};

fn close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < 1e-6 * (1.0 + x.abs()),
            "vertex {i}: {x} vs {y}"
        );
    }
}

#[test]
fn pendant_reduction_on_pendant_rich_workload() {
    let core = random_min_deg3(120, 300, 5);
    let g = attach_pendants(&core, 150, 6);
    let plain = betweenness(&g).unwrap();
    let reduced = betweenness_pendant_reduced(&g).unwrap();
    close(&plain, &reduced);
    // Sanity: pendant leaves have zero betweenness.
    for v in core.n() as u32..g.n() as u32 {
        if g.degree(v) == 1 {
            assert_eq!(plain[v as usize], 0.0);
        }
    }
}

#[test]
fn hetero_bc_matches_on_mesh() {
    let g = triangulated_grid(12, 12, 7);
    let (bc, report) = betweenness_hetero(&g, &HeteroExecutor::cpu_gpu()).unwrap();
    close(&bc, &betweenness(&g).unwrap());
    assert_eq!(report.total_units(), g.n());
    assert!(report.makespan_s > 0.0);
}

#[test]
fn degree_two_chains_carry_all_their_traffic() {
    // Subdivided edges: an interior chain vertex x separates sub from rest,
    // so its betweenness is (N-1) - (stuff on its own side) ... at minimum
    // positive; and endpoints of the graph dominate chain interiors only
    // when they are cut vertices. Weak but structural assertion: every
    // chain interior vertex on a bridge-free base has BC > 0.
    let core = random_min_deg3(40, 100, 9);
    let g = subdivide_edges(&core, 30, 2, 10);
    let bc = betweenness(&g).unwrap();
    for v in core.n() as u32..g.n() as u32 {
        assert!(bc[v as usize] > 0.0, "chain vertex {v} carries traffic");
    }
    close(&bc, &betweenness_pendant_reduced(&g).unwrap());
}

/// The pendant reduction is exact and the heterogeneous runner processes
/// one workunit per vertex, on arbitrary simple graphs.
#[test]
fn pendant_reduction_and_hetero_bc_on_random_graphs() {
    forall("pendant_reduction_and_hetero_bc_on_random_graphs")
        .cases(32)
        .run(&simple_graphs(24), |g| {
            let plain = betweenness(g).unwrap();
            let reduced = betweenness_pendant_reduced(g).unwrap();
            for (i, (x, y)) in plain.iter().zip(&reduced).enumerate() {
                if (x - y).abs() >= 1e-6 * (1.0 + x.abs()) {
                    return Err(format!("vertex {i}: {x} vs {y}"));
                }
            }
            let (bc, report) = betweenness_hetero(g, &HeteroExecutor::cpu_gpu()).unwrap();
            invariants::exactly_once(&report, g.n())?;
            for (i, (x, y)) in plain.iter().zip(&bc).enumerate() {
                if (x - y).abs() >= 1e-6 * (1.0 + x.abs()) {
                    return Err(format!("hetero vertex {i}: {x} vs {y}"));
                }
            }
            Ok(())
        });
}

/// On cactus graphs every cycle is edge-disjoint, so the pendant
/// reduction's core is small and the closed-form tree terms dominate —
/// a stress case for the bookkeeping.
#[test]
fn pendant_reduction_on_cactus_graphs() {
    forall("pendant_reduction_on_cactus_graphs")
        .cases(32)
        .run(&cactus_graphs(30), |g| {
            let plain = betweenness(g).unwrap();
            let reduced = betweenness_pendant_reduced(g).unwrap();
            for (i, (x, y)) in plain.iter().zip(&reduced).enumerate() {
                if (x - y).abs() >= 1e-6 * (1.0 + x.abs()) {
                    return Err(format!("vertex {i}: {x} vs {y}"));
                }
            }
            Ok(())
        });
}

#[test]
fn bc_scales_with_gateway_position() {
    // Barbell: two cliques joined by a path; path vertices must outrank
    // everything inside the cliques.
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for i in 0..5u32 {
        for j in (i + 1)..5 {
            edges.push((i, j, 1));
            edges.push((i + 8, j + 8, 1));
        }
    }
    edges.push((4, 5, 1));
    edges.push((5, 6, 1));
    edges.push((6, 7, 1));
    edges.push((7, 8, 1));
    let g = ear_graph::CsrGraph::from_edges(13, &edges);
    let bc = betweenness(&g).unwrap();
    let max_clique_bc = (0..4)
        .chain(9..13)
        .map(|v| bc[v as usize])
        .fold(0.0, f64::max);
    for mid in [5u32, 6, 7] {
        assert!(
            bc[mid as usize] > max_clique_bc,
            "bridge vertex {mid} must dominate"
        );
    }
    close(&bc, &betweenness_pendant_reduced(&g).unwrap());
}
