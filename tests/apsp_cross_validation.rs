//! Cross-validation of every APSP implementation against the
//! Floyd–Warshall oracle on random graphs, via the shared `ear-testkit`
//! strategies and invariant checkers.
//!
//! Any failure prints a one-line `EAR_TESTKIT_SEED=… cargo test <name>`
//! reproduction.

use ear_apsp::baselines::{floyd_warshall, plain_apsp};
use ear_apsp::djidjev::djidjev_apsp;
use ear_apsp::{build_oracle, ApspMethod};
use ear_graph::CsrGraph;
use ear_hetero::HeteroExecutor;
use ear_testkit::{forall, invariants, multigraphs, simple_graphs, usizes, zip};

const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

/// Algorithm 1 (the `Ear` oracle, materialized to one matrix) equals
/// Floyd–Warshall on arbitrary simple graphs, under both device
/// configurations — and is a metric.
#[test]
fn ear_apsp_matches_floyd_warshall() {
    forall("ear_apsp_matches_floyd_warshall")
        .cases(48)
        .run(&simple_graphs(28), |g| {
            let fw = floyd_warshall(g);
            invariants::metric_axioms(g, &fw)?;
            for exec in [HeteroExecutor::sequential(), HeteroExecutor::cpu_gpu()] {
                let o = build_oracle(g, &exec, ApspMethod::Ear);
                if o.materialize() != fw {
                    return Err("ear oracle disagrees with floyd_warshall".into());
                }
            }
            Ok(())
        });
}

/// The general-graph oracle (every build method, on both device
/// configurations) answers every query exactly — a metric — and its
/// reconstructed paths realize the claimed distances.
#[test]
fn oracle_matches_floyd_warshall() {
    forall("oracle_matches_floyd_warshall")
        .cases(48)
        .run(&simple_graphs(28), |g| {
            let fw = floyd_warshall(g);
            invariants::metric_axioms(g, &fw)?;
            let execs = [HeteroExecutor::sequential(), HeteroExecutor::cpu_gpu()];
            for (exec, method) in execs.iter().flat_map(|e| METHODS.map(|m| (e, m))) {
                let o = build_oracle(g, exec, method);
                invariants::oracle_consistency(&o, &fw).map_err(|e| format!("{method:?}: {e}"))?;
                invariants::oracle_paths_realize_distances(g, &o, &fw)
                    .map_err(|e| format!("{method:?}: {e}"))?;
            }
            Ok(())
        });
}

/// The Djidjev partition baseline is exact for any part count.
#[test]
fn djidjev_matches_floyd_warshall() {
    forall("djidjev_matches_floyd_warshall").cases(48).run(
        &zip(simple_graphs(24), usizes(1..6)),
        |(g, k)| {
            let fw = floyd_warshall(g);
            let out = djidjev_apsp(g, *k, &HeteroExecutor::sequential());
            if out.dist != fw {
                return Err(format!("djidjev k={k} disagrees with floyd_warshall"));
            }
            Ok(())
        },
    );
}

/// Plain all-sources Dijkstra agrees too (and with parallel edges and
/// self-loops present, which the others don't accept).
#[test]
fn plain_apsp_matches_on_multigraphs() {
    forall("plain_apsp_matches_on_multigraphs")
        .cases(48)
        .run(&multigraphs(20), |g| {
            let fw = floyd_warshall(g);
            let (m, _) = plain_apsp(g, &HeteroExecutor::cpu_gpu());
            if m != fw {
                return Err("plain_apsp disagrees with floyd_warshall".into());
            }
            Ok(())
        });
}

/// Memory accounting: the oracle's table entries match the definition
/// `a² + Σ nᵢ²` recomputed here, and `a² + Σ (nᵢʳ)²` at `Reduced`.
#[test]
fn oracle_memory_accounting() {
    forall("oracle_memory_accounting")
        .cases(48)
        .run(&simple_graphs(32), |g| {
            let exec = HeteroExecutor::sequential();
            let o = build_oracle(g, &exec, ApspMethod::Ear);
            let s = o.stats();
            let plan = ear_decomp::plan::DecompPlan::build(g);
            let a = plan.bct().ap_count() as u64;
            let sum_sq: u64 = plan.blocks().iter().map(|bp| (bp.n() as u64).pow(2)).sum();
            if s.table_entries != a * a + sum_sq {
                return Err(format!(
                    "table_entries = {}, expected a² + Σnᵢ² = {}",
                    s.table_entries,
                    a * a + sum_sq
                ));
            }
            let reduced = build_oracle(g, &exec, ApspMethod::Reduced);
            let sum_sq_r: u64 = plan
                .blocks()
                .iter()
                .map(|bp| (bp.reduced_n() as u64).pow(2))
                .sum();
            if reduced.stats().table_entries != a * a + sum_sq_r {
                return Err(format!(
                    "Reduced table_entries = {}, expected a² + Σ(nᵢʳ)² = {}",
                    reduced.stats().table_entries,
                    a * a + sum_sq_r
                ));
            }
            if s.articulation_points as u64 != a {
                return Err(format!(
                    "articulation_points = {}, expected {a}",
                    s.articulation_points
                ));
            }
            Ok(())
        });
}

/// Deterministic regression: a graph exercising every routing case at once
/// (blocks, bridges, pendants, chains, isolated vertices).
#[test]
fn kitchen_sink_graph() {
    let g = CsrGraph::from_edges(
        14,
        &[
            // Block A: square with chord.
            (0, 1, 3),
            (1, 2, 4),
            (2, 3, 5),
            (3, 0, 6),
            (0, 2, 7),
            // Bridge to block B (pure cycle of degree-2 vertices).
            (2, 4, 2),
            (4, 5, 1),
            (5, 6, 1),
            (6, 7, 1),
            (7, 4, 1),
            // Pendant chain.
            (6, 8, 9),
            (8, 9, 9),
            // Second component: a triangle.
            (10, 11, 2),
            (11, 12, 2),
            (12, 10, 2),
            // Vertex 13 isolated.
        ],
    );
    let fw = floyd_warshall(&g);
    let exec = HeteroExecutor::cpu_gpu();
    for method in METHODS {
        let o = build_oracle(&g, &exec, method);
        assert_eq!(o.materialize(), fw, "{method:?}");
    }
}
