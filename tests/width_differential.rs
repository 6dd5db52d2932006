//! Differential suite for the distance tables' entry width.
//!
//! An oracle stores its tables at `u32` when its graph's total edge
//! weight is below `u32::MAX` and at `u64` otherwise; the data alone
//! picks the width. A disjoint edge of weight `u32::MAX` added to a
//! graph `G` forces `u64` and changes no distance among `G`'s vertices,
//! so the two oracles must answer every pair of `G`'s vertices
//! identically, at every `ApspMethod`, cold and along a chain of
//! refreshes, each of them through its query engine too.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};

const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

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

/// Bytes per entry the width rule gives a graph with weights `w`.
fn entry_bytes(w: &[Weight]) -> usize {
    let total: u128 = w.iter().map(|&w| u128::from(w)).sum();
    if total < u128::from(u32::MAX) {
        4
    } else {
        8
    }
}

/// The oracle's width is the rule's, its stats report its bytes at that
/// width, and it and its query engine answer every pair of `g`'s
/// vertices as `narrow` does.
fn same_on_g(
    g: &CsrGraph,
    what: &str,
    narrow: &DistanceOracle,
    wide: &DistanceOracle,
) -> Result<(), String> {
    for o in [narrow, wide] {
        let (tables, st) = (o.tables(), o.stats());
        if tables.entry_bytes() != entry_bytes(o.plan().edge_weights()) {
            return Err(format!("{what}: stored at {} bytes", tables.entry_bytes()));
        }
        if st.table_bytes != st.table_entries * tables.entry_bytes() as u64 {
            return Err(format!("{what}: table_bytes {}", st.table_bytes));
        }
    }
    let q = QueryEngine::new(wide);
    for u in 0..g.n() as u32 {
        for v in 0..g.n() as u32 {
            let (a, b, c) = (narrow.dist(u, v), wide.dist(u, v), q.dist(u, v));
            if a != b || b != c {
                return Err(format!(
                    "{what}: d({u},{v}) narrow {a}, wide {b}, engine {c}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn both_widths_answer_alike_cold_and_along_refresh_chains() {
    for (name, strat) in families() {
        forall(format!("width_differential/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let heavy = with_heavy_edge(g);
                let (plan_n, plan_w) = (
                    Arc::new(DecompPlan::build(g)),
                    Arc::new(DecompPlan::build(&heavy)),
                );
                let mut rng = TestRng::new(derive_seed(g.m() as u64, 0x3d7));
                for method in METHODS {
                    let mut narrow = build_oracle_with_plan(Arc::clone(&plan_n), &exec, method);
                    let mut wide = build_oracle_with_plan(Arc::clone(&plan_w), &exec, method);
                    if wide.tables().entry_bytes() != 8 {
                        return Err(format!("{method:?}: the heavy edge left u32 tables"));
                    }
                    same_on_g(g, &format!("{method:?} cold"), &narrow, &wide)?;
                    // Three hops, each redrawing about half of g's weights;
                    // the heavy edge keeps its weight.
                    let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
                    for hop in 0..3 {
                        for x in w.iter_mut() {
                            if rng.coin() {
                                *x = rng.u64_in(1, 101);
                            }
                        }
                        let mut hw = w.clone();
                        hw.push(Weight::from(u32::MAX));
                        let pn = Arc::new(narrow.plan().recustomized(&w));
                        let pw = Arc::new(wide.plan().recustomized(&hw));
                        narrow = narrow.recustomized(pn, &exec);
                        wide = wide.recustomized(pw, &exec);
                        same_on_g(g, &format!("{method:?} hop {hop}"), &narrow, &wide)?;
                    }
                }
                Ok(())
            });
    }
}
