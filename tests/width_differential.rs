//! Differential suite for the distance tables' entry width.
//!
//! An oracle stores its tables at `u16`, `u32` or `u64`: the narrowest
//! width whose `INF` lies past the bound `B = min(total edge weight,
//! max over components c of 2·ecc(r_c))`, `r_c` being the smallest vertex
//! id of `c`. The data alone picks the width. The testkit's graphs `G`
//! (weights 1–100, at most 40 vertices) store at `u16`. A disjoint edge of
//! weight `u16::MAX` added to `G` forces `u32`, one of weight `u32::MAX`
//! forces `u64`, and neither changes a distance among `G`'s vertices. So
//! the three oracles must answer every pair of `G`'s vertices
//! identically, at every `ApspMethod`, cold and along a chain of
//! refreshes, each of them through its query engine too. A fourth oracle
//! refreshes across the `u16`/`u32` bound both ways by toggling its
//! disjoint edge between weight 1 and `u16::MAX`. A fifth closes a
//! `u32::MAX` edge into a triangle with two edges of weight 1: the edge is
//! on no shortest path, so the tables stay at `u16`, where the total
//! weight alone would store them at `u64`.
//!
//! The expected width is computed here from the rule's definition, with a
//! whole-graph `ear_graph::dijkstra` per component, independently of the
//! plan's block-by-block bound.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, stored_entries, ApspMethod, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight, INF};
use ear_hetero::HeteroExecutor;
use ear_testkit::rng::derive_seed;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy, TestRng,
};

const METHODS: [ApspMethod; 3] = [ApspMethod::Ear, ApspMethod::Plain, ApspMethod::Reduced];

/// Weight of the disjoint edge that moves `G`'s tables to `u32`.
const TO_U32: Weight = u16::MAX as Weight;

/// Weight of the disjoint edge that moves `G`'s tables to `u64`.
const TO_U64: Weight = u32::MAX as Weight;

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

/// What one oracle of the suite adds to `G`, and the width it must take.
#[derive(Clone, Copy)]
struct Variant {
    /// The disjoint edge `(n, n + 1)`'s weight at the cold build and at
    /// each of three hops; none for `G` itself.
    edge: Option<[Weight; 4]>,
    /// Whether the edge is closed into the triangle `n, n + 1, n + 2` by
    /// two edges of weight 1.
    closed: bool,
    /// Bytes per entry at the cold build and at each hop.
    bytes: [usize; 4],
}

/// `g` at edge weights `w`, plus `v`'s extra edges at `hop`, appended
/// last so the first `g.m()` edge ids are `g`'s.
fn graph_with(g: &CsrGraph, w: &[Weight], v: Variant, hop: usize) -> CsrGraph {
    let mut edges: Vec<_> = g
        .edges()
        .iter()
        .zip(w)
        .map(|(e, &w)| (e.u, e.v, w))
        .collect();
    let (n, mut extra) = (g.n() as u32, 0);
    if let Some(weights) = v.edge {
        edges.push((n, n + 1, weights[hop]));
        extra = 2;
    }
    if v.closed {
        edges.extend([(n + 1, n + 2, 1), (n + 2, n, 1)]);
        extra = 3;
    }
    CsrGraph::from_edges(g.n() + extra, &edges)
}

/// Bytes per entry for a bound on every stored distance.
fn bytes_for(bound: u128) -> usize {
    if bound < u128::from(u16::MAX) {
        2
    } else if bound < u128::from(u32::MAX) {
        4
    } else {
        8
    }
}

/// The total weight of `g`, exactly.
fn total(g: &CsrGraph) -> u128 {
    g.edges().iter().map(|e| u128::from(e.w)).sum()
}

/// The rule's bound by its definition: the total weight, or twice the
/// largest distance from any component's smallest vertex id if smaller.
fn reference_bound(g: &CsrGraph) -> u128 {
    let mut seen = vec![false; g.n()];
    let mut ecc_max = 0u128;
    for r in 0..g.n() as u32 {
        if seen[r as usize] {
            continue;
        }
        for (v, d) in ear_graph::dijkstra(g, r).into_iter().enumerate() {
            if d < INF {
                seen[v] = true;
                ecc_max = ecc_max.max(u128::from(d));
            }
        }
    }
    total(g).min(2 * ecc_max)
}

/// `o`, built on `g`, stores at the width of the reference bound, never
/// wider than the total weight alone would give, reports the bound and the
/// bytes its arena holds at that width (the sizing rule's entries), and
/// stores at `bytes` per entry.
fn width_is_the_rules(
    g: &CsrGraph,
    o: &DistanceOracle,
    bytes: usize,
    what: &str,
) -> Result<(), String> {
    let (tables, st) = (o.tables(), o.stats());
    let bound = reference_bound(g);
    if u128::from(st.distance_bound) != bound.min(u128::from(INF)) {
        return Err(format!("{what}: bound {} vs {bound}", st.distance_bound));
    }
    if tables.entry_bytes() != bytes_for(bound) || bytes != bytes_for(bound) {
        return Err(format!(
            "{what}: stored at {} bytes, rule {}, expected {bytes}",
            tables.entry_bytes(),
            bytes_for(bound)
        ));
    }
    if tables.entry_bytes() > bytes_for(total(g)) {
        return Err(format!("{what}: wider than the total-weight rule"));
    }
    let stored = stored_entries(o.plan(), o.method());
    if tables.entries() != stored || st.table_bytes != (stored * bytes) as u64 {
        return Err(format!("{what}: table_bytes {}", st.table_bytes));
    }
    Ok(())
}

/// Each oracle (built on `g` plus a disjoint edge) and its query engine
/// answer every pair of `g`'s vertices as the first oracle does.
fn same_on_g(g: &CsrGraph, what: &str, oracles: &[DistanceOracle]) -> Result<(), String> {
    let engines: Vec<QueryEngine> = oracles.iter().map(QueryEngine::new).collect();
    for u in 0..g.n() as u32 {
        for v in 0..g.n() as u32 {
            let want = oracles[0].dist(u, v);
            for (o, q) in oracles.iter().zip(&engines) {
                let (a, b) = (o.dist(u, v), q.dist(u, v));
                if a != want || b != want {
                    return Err(format!(
                        "{what}: d({u},{v}) {want} at {} bytes, {a} at {}, engine {b}",
                        oracles[0].tables().entry_bytes(),
                        o.tables().entry_bytes()
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn every_width_answers_alike_cold_and_along_refresh_chains() {
    for (name, strat) in families() {
        forall(format!("width_differential/{name}").leak())
            .cases(8)
            .run(&strat, |g| {
                let exec = HeteroExecutor::sequential();
                let open = |edge, bytes| Variant {
                    edge,
                    closed: false,
                    bytes,
                };
                let variants = [
                    open(None, [2; 4]),
                    open(Some([TO_U32; 4]), [4; 4]),
                    open(Some([TO_U64; 4]), [8; 4]),
                    open(Some([1, TO_U32, 1, TO_U32]), [2, 4, 2, 4]),
                    Variant {
                        edge: Some([TO_U64; 4]),
                        closed: true,
                        bytes: [2; 4],
                    },
                ];
                let mut rng = TestRng::new(derive_seed(g.m() as u64, 0x3d7));
                for method in METHODS {
                    let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
                    let mut oracles = Vec::new();
                    for v in variants {
                        let graph = graph_with(g, &w, v, 0);
                        let plan = Arc::new(DecompPlan::build(&graph));
                        let o = build_oracle_with_plan(plan, &exec, method);
                        width_is_the_rules(&graph, &o, v.bytes[0], &format!("{method:?} cold"))?;
                        oracles.push(o);
                    }
                    same_on_g(g, &format!("{method:?} cold"), &oracles)?;
                    // Three hops, each redrawing about half of g's weights;
                    // the extra edges take their next weight.
                    for hop in 1..4 {
                        for x in w.iter_mut() {
                            if rng.coin() {
                                *x = rng.u64_in(1, 101);
                            }
                        }
                        let what = format!("{method:?} hop {hop}");
                        for (o, v) in oracles.iter_mut().zip(variants) {
                            let graph = graph_with(g, &w, v, hop);
                            let hw: Vec<Weight> = graph.edges().iter().map(|e| e.w).collect();
                            let plan = Arc::new(o.plan().recustomized(&hw));
                            *o = o.recustomized(plan, &exec);
                            width_is_the_rules(&graph, o, v.bytes[hop], &what)?;
                        }
                        same_on_g(g, &what, &oracles)?;
                    }
                }
                Ok(())
            });
    }
}
