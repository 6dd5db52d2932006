//! Differential suite for phase II's derived rows.
//!
//! Phase II runs Dijkstra only from sources outside a maximal independent
//! set `I` of each block's phase-II graph (the reduced graph, or the block
//! itself when it is not reduced) and writes every row `x ∈ I` as the
//! minimum over its neighbours' rows. This suite holds those tables to one
//! `SsspEngine` run per source, bit for bit, on every testkit family — as
//! generated and with every third edge reweighted to zero — and on the
//! edge cases the derivation has to get right: a self-loop-only block, a
//! bridge block, a non-simple block processed plainly, zero-weight edges
//! and a disconnected input. The phase-II tables are read where
//! `ApspMethod::Reduced` stores them: its block spans. The suite also
//! checks that `I` is independent, maximal and deterministic, and pins
//! the Banerjee baseline (`ApspMethod::Plain`) to exactly one full
//! Dijkstra per block vertex.

use std::sync::Arc;

use ear_apsp::oracle::derived_sources;
use ear_apsp::{build_oracle, build_oracle_with_plan, ApspMethod, DistMatrix};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, CsrView, SsspEngine, Weight, INF};
use ear_hetero::HeteroExecutor;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy,
};

/// Every strategy family the testkit ships, in one list.
fn families() -> Vec<(&'static str, GraphStrategy)> {
    vec![
        ("simple", simple_graphs(14)),
        ("multigraph", multigraphs(12)),
        ("biconnected", biconnected_graphs(12)),
        ("chain_heavy", chain_heavy_graphs(30)),
        ("cactus", cactus_graphs(16)),
        ("multi_bcc", multi_bcc_graphs(16)),
        ("workload", workload_graphs(40)),
    ]
}

/// One `SsspEngine` run per source of `g`.
fn dijkstra_rows(g: CsrView<'_>) -> DistMatrix {
    let mut eng = SsspEngine::new();
    let mut m = DistMatrix::new(g.n());
    for (s, row) in (0..).zip(m.rows_mut()) {
        eng.run_view(g, s);
        eng.write_dist(row);
    }
    m
}

/// `I` is independent (no edge joins two members; self-loops aside),
/// maximal (every non-member has a member neighbour) and the same on a
/// second call.
fn check_independent_set(g: CsrView<'_>) -> Result<(), String> {
    let member = derived_sources(g);
    if member.len() != g.n() {
        return Err(format!("mask length {} for n = {}", member.len(), g.n()));
    }
    for x in g.vertices() {
        let nbrs = || g.neighbors(x).iter().map(|&(u, _)| u).filter(|&u| u != x);
        if member[x as usize] {
            if let Some(u) = nbrs().find(|&u| member[u as usize]) {
                return Err(format!("members {x} and {u} are adjacent"));
            }
        } else if !nbrs().any(|u| member[u as usize]) {
            return Err(format!("non-member {x} has no member neighbour"));
        }
    }
    if derived_sources(g) != member {
        return Err("two calls chose different sets".into());
    }
    Ok(())
}

/// Every block's phase-II table — the `Reduced` oracle's span of the
/// block — equals one Dijkstra per source of the block's phase-II graph,
/// with one executor unit per source; and the full tables agree: `Ear`
/// spans (phase II, then phase III) equal `Plain`'s one Dijkstra per
/// block vertex.
fn check_graph(g: &CsrGraph) -> Result<(), String> {
    let exec = HeteroExecutor::sequential();
    let plan = Arc::new(DecompPlan::build(g));
    let reduced = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Reduced);
    let mut sources = 0;
    for b in 0..plan.n_blocks() as u32 {
        let target = plan
            .reduction(b)
            .map_or_else(|| plan.block_graph(b), |r| r.reduced.view());
        check_independent_set(target).map_err(|e| format!("block {b}: {e}"))?;
        let (span, want, n) = (
            reduced.tables().block_span(b),
            dijkstra_rows(target),
            target.n(),
        );
        if span.len() != n * n {
            return Err(format!("block {b}: span of {} for n = {n}", span.len()));
        }
        for (s, row) in (0..).zip(span.chunks(n.max(1))) {
            if row != want.row(s) {
                return Err(format!(
                    "block {b} row {s}: {row:?} vs Dijkstra {:?}",
                    want.row(s)
                ));
            }
        }
        sources += n;
    }
    if reduced.processing.total_units() != sources {
        return Err(format!(
            "{} units for {sources} sources",
            reduced.processing.total_units()
        ));
    }
    let ear = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Ear);
    let plain = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Plain);
    for b in 0..plan.n_blocks() as u32 {
        let (e, p) = (ear.tables().block_span(b), plain.tables().block_span(b));
        if e != p {
            return Err(format!("block {b}: Ear span {e:?} vs Plain {p:?}"));
        }
    }
    if ear.tables().ap_span() != plain.tables().ap_span() {
        return Err("AP spans differ".into());
    }
    Ok(())
}

/// `g` with every third edge reweighted to zero.
fn with_zero_weights(g: &CsrGraph) -> CsrGraph {
    let w: Vec<Weight> = (0..)
        .zip(g.edges())
        .map(|(i, e)| if i % 3 == 0 { 0 } else { e.w })
        .collect();
    g.reweighted(&w)
}

#[test]
fn derived_rows_match_dijkstra_on_every_family() {
    for (name, strategy) in families() {
        forall("derived_rows_match_dijkstra_on_every_family")
            .cases(24)
            .run(&strategy, |g| {
                check_graph(g).map_err(|e| format!("{name}: {e}"))?;
                check_graph(&with_zero_weights(g)).map_err(|e| format!("{name}, zero weights: {e}"))
            });
    }
}

#[test]
fn edge_case_blocks_match_dijkstra() {
    // Triangle 0-1-2, a self-loop at 3 hanging off a bridge 2-3, and a
    // parallel pair 3-4 closing into a non-simple block with 4-5-3.
    let g = CsrGraph::from_edges(
        6,
        &[
            (0, 1, 2),
            (1, 2, 0),
            (2, 0, 5),
            (2, 3, 4),
            (3, 3, 7),
            (3, 4, 1),
            (3, 4, 3),
            (4, 5, 0),
            (5, 3, 2),
        ],
    );
    let plan = DecompPlan::build(&g);
    let sizes: Vec<usize> = (0..plan.n_blocks() as u32)
        .map(|b| plan.block(b).n())
        .collect();
    assert!(sizes.contains(&1), "a self-loop-only block: {sizes:?}");
    assert!(sizes.contains(&2), "a bridge block: {sizes:?}");
    assert!(
        (0..plan.n_blocks() as u32).any(|b| plan.block(b).n() == 3 && plan.reduction(b).is_none()),
        "a non-simple block processed plainly"
    );
    check_graph(&g).unwrap();

    // One vertex with only a self-loop; two vertices joined by a bridge.
    for (n, edges) in [(1, vec![(0, 0, 3)]), (2, vec![(0, 1, 9)])] {
        let g = CsrGraph::from_edges(n, &edges);
        check_graph(&g).unwrap();
        let reduced = build_oracle(&g, &HeteroExecutor::sequential(), ApspMethod::Reduced);
        assert_eq!(reduced.tables().block_span(0)[0], 0);
    }
}

#[test]
fn reduced_oracle_on_a_disconnected_input_matches_dijkstra() {
    // Two triangles with a pendant chain, one isolated vertex.
    let g = CsrGraph::from_edges(
        9,
        &[
            (0, 1, 1),
            (1, 2, 0),
            (2, 0, 3),
            (2, 3, 2),
            (3, 4, 5),
            (5, 6, 1),
            (6, 7, 2),
            (7, 5, 4),
        ],
    );
    let reduced = build_oracle(&g, &HeteroExecutor::cpu_gpu(), ApspMethod::Reduced);
    let dist = reduced.materialize();
    assert_eq!(dist, dijkstra_rows(g.view()));
    assert_eq!(dist.get(0, 5), INF);
    assert_eq!(dist.get(8, 8), 0);
    // The derived rows ran as dense combinations, not searches.
    assert!(reduced.processing.total_counters().dense_combined > 0);
}

#[test]
fn plain_oracle_runs_one_full_dijkstra_per_block_vertex() {
    let exec = HeteroExecutor::sequential();
    for (name, strategy) in families() {
        forall("plain_oracle_runs_one_full_dijkstra_per_block_vertex")
            .cases(16)
            .run(&strategy, |g| {
                let plan = Arc::new(DecompPlan::build(g));
                let plain = build_oracle_with_plan(Arc::clone(&plan), &exec, ApspMethod::Plain);
                let want: u64 = (0..plan.n_blocks() as u32)
                    .map(|b| {
                        let bg = plan.block_graph(b);
                        (bg.n() * bg.incidence_weights().len()) as u64
                    })
                    .sum();
                let c = plain.processing.total_counters();
                if c.edges_relaxed != want || c.dense_combined != 0 {
                    return Err(format!(
                        "{name}: edges_relaxed {} (want {want}), dense_combined {}",
                        c.edges_relaxed, c.dense_combined
                    ));
                }
                let sources: usize = (0..plan.n_blocks() as u32).map(|b| plan.block(b).n()).sum();
                if plain.processing.total_units() != sources {
                    return Err(format!(
                        "{name}: {} units for {sources} sources",
                        plain.processing.total_units()
                    ));
                }
                Ok(())
            });
    }
}
