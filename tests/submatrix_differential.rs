//! Differential suite for the retained-first block layout.
//!
//! The plan numbers every simple block retained first, so a block's
//! reduced table `S^r` is the leading `k × k` submatrix of its full one
//! (`k` = retained vertices). This suite holds the `Ear` oracle's block
//! spans to that: for every simple block, the leading `k × k` entries of
//! its `Ear` span equal the `Reduced` oracle's span bit for bit, on every
//! testkit family, cold and along a chain of refreshes, at both entry
//! widths (a disjoint edge of weight `u32::MAX` forces `u64`).

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
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

/// `g` plus the disjoint edge `(n, n + 1)` of weight `u32::MAX`, appended
/// last so the first `g.m()` edge ids are `g`'s.
fn with_heavy_edge(g: &CsrGraph) -> CsrGraph {
    let n = g.n() as u32;
    let mut edges: Vec<_> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    edges.push((n, n + 1, Weight::from(u32::MAX)));
    CsrGraph::from_edges(g.n() + 2, &edges)
}

/// Every simple block's `Ear` span leads with the `Reduced` span, and the
/// two oracles store at the same width.
fn reduced_leads_full(
    what: &str,
    ear: &DistanceOracle,
    red: &DistanceOracle,
) -> Result<(), String> {
    let (full, reduced) = (ear.tables(), red.tables());
    if full.entry_bytes() != reduced.entry_bytes() {
        return Err(format!("{what}: widths differ"));
    }
    let plan = ear.plan();
    for b in (0..plan.n_blocks() as u32).filter(|&b| plan.reduction(b).is_some()) {
        let (n, k) = (plan.block(b).n(), plan.block(b).reduced_n());
        let (f, r) = (full.block_span(b), reduced.block_span(b));
        if r.len() != k * k || f.len() != n * n {
            return Err(format!(
                "{what} block {b}: spans of {} and {}",
                f.len(),
                r.len()
            ));
        }
        for i in 0..k {
            if f[i * n..i * n + k] != r[i * k..(i + 1) * k] {
                return Err(format!("{what} block {b}: row {i} of S^r differs"));
            }
        }
    }
    Ok(())
}

#[test]
fn reduced_table_is_the_leading_submatrix_cold_and_refreshed_at_both_widths() {
    for (name, strat) in families() {
        forall(format!("submatrix_differential/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let mut rng = TestRng::new(derive_seed(g.m() as u64, 0x5b3));
                for (graph, bytes) in [(g.clone(), None), (with_heavy_edge(g), Some(8))] {
                    let plan = Arc::new(DecompPlan::build(&graph));
                    let build = |m| build_oracle_with_plan(Arc::clone(&plan), &exec, m);
                    let (mut ear, mut red) = (build(ApspMethod::Ear), build(ApspMethod::Reduced));
                    if bytes.is_some_and(|b| ear.tables().entry_bytes() != b) {
                        return Err("the heavy edge left u32 tables".into());
                    }
                    let width = ear.tables().entry_bytes();
                    reduced_leads_full(&format!("{width}B cold"), &ear, &red)?;
                    // Three hops, each redrawing about half of g's weights;
                    // the heavy edge keeps its weight.
                    let mut w: Vec<Weight> = graph.edges().iter().map(|e| e.w).collect();
                    for hop in 0..3 {
                        for x in w.iter_mut().take(g.m()) {
                            if rng.coin() {
                                *x = rng.u64_in(1, 101);
                            }
                        }
                        let p = Arc::new(ear.plan().recustomized(&w));
                        ear = ear.recustomized(Arc::clone(&p), &exec);
                        red = red.recustomized(p, &exec);
                        reduced_leads_full(&format!("{width}B hop {hop}"), &ear, &red)?;
                    }
                }
                Ok(())
            });
    }
}
