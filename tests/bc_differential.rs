//! Differential suite for betweenness centrality: every BC entry point of
//! `ear-bc` — [`betweenness`], [`betweenness_weighted`],
//! [`betweenness_hetero`] and [`betweenness_pendant_reduced`] — must be
//! bit-identical to the reference Brandes in `ear_testkit::reference`,
//! whose forward pass runs on its own lazy-deletion binary heap, with the
//! same work counters. The BC entry points share one path-counting run
//! (`SsspEngine::count_paths`), so comparing them with each other could
//! not see an error they all share.
//!
//! Checked on every testkit family, and on graphs past `DIAL_MIN_N` built
//! for each of the engine's queues: plain Dial buckets, the overflow
//! window (a weight past `DIAL_BUCKETS`), and the heap that a weight past
//! `DIAL_WEIGHT_LIMIT` forces. Zero-weight edges force the heap too, but
//! betweenness refuses them: shortest simple paths through a zero-weight
//! cycle have no Brandes DAG, so each entry point must return
//! `ZeroWeightEdge`, naming the first such edge.

use ear_bc::brandes::betweenness_weighted;
use ear_bc::{betweenness, betweenness_hetero, betweenness_pendant_reduced, ZeroWeightEdge};
use ear_graph::engine::{DIAL_BUCKETS, DIAL_MIN_N, DIAL_WEIGHT_LIMIT};
use ear_graph::{CsrGraph, VertexId, Weight};
use ear_hetero::{HeteroExecutor, WorkCounters};
use ear_testkit::reference;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, GraphStrategy,
};
use ear_workloads::combinators::attach_pendants;
use ear_workloads::generators::random_min_deg3;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// `what` on `g` equals the reference bit for bit.
fn same(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if bits(got) == bits(want) {
        return Ok(());
    }
    let v = (0..want.len())
        .find(|&v| got.get(v).map(|x| x.to_bits()) != Some(want[v].to_bits()))
        .unwrap_or(want.len());
    Err(format!(
        "{what}: vertex {v}: {:?} vs reference {:?}",
        got.get(v),
        want.get(v)
    ))
}

/// The four BC entry points on `g` against the reference, and the hetero
/// report's counters against the reference's per-source counters.
fn check(g: &CsrGraph) -> Result<(), String> {
    let n = g.n() as u32;
    let refused = |what: &str, e: ZeroWeightEdge| format!("{what}: {e}");
    let want = reference::betweenness(g);
    let bc = betweenness(g).map_err(|e| refused("betweenness", e))?;
    same("betweenness", &bc, &want)?;

    let (bc, report) = betweenness_hetero(g, &HeteroExecutor::cpu_gpu())
        .map_err(|e| refused("betweenness_hetero", e))?;
    same("betweenness_hetero", &bc, &want)?;
    let ones = vec![1.0; g.n()];
    let counters: WorkCounters = (0..n)
        .map(|s| reference::brandes_dependencies(g, s, &ones).1)
        .sum();
    if report.total_counters() != counters {
        return Err(format!(
            "betweenness_hetero counters {:?} vs reference {counters:?}",
            report.total_counters()
        ));
    }

    // Every other vertex a source, with uneven source and target masses.
    let sources: Vec<VertexId> = (0..n).step_by(2).collect();
    let source_w: Vec<f64> = (0..n).map(|v| 1.0 + f64::from(v % 3)).collect();
    let target_w: Vec<f64> = (0..n).map(|v| 0.5 + f64::from(v % 2)).collect();
    let bc = betweenness_weighted(g, &sources, &source_w, &target_w)
        .map_err(|e| refused("betweenness_weighted", e))?;
    same(
        "betweenness_weighted",
        &bc,
        &reference::betweenness_weighted(g, &sources, &source_w, &target_w),
    )?;

    let bc = betweenness_pendant_reduced(g).map_err(|e| refused("pendant_reduced", e))?;
    same(
        "betweenness_pendant_reduced",
        &bc,
        &reference::betweenness_pendant_reduced(g),
    )
}

/// The four BC entry points on `g` each return the error naming `g`'s
/// first zero-weight edge, which is edge `edge`.
fn refuses(g: &CsrGraph, edge: u32) {
    let e = g.edges()[edge as usize];
    assert_eq!(e.w, 0);
    assert!(g.edges()[..edge as usize].iter().all(|e| e.w > 0));
    let want = Err(ZeroWeightEdge {
        edge,
        u: e.u,
        v: e.v,
    });
    let ones = vec![1.0; g.n()];
    let sources: Vec<VertexId> = (0..g.n() as u32).collect();
    assert_eq!(betweenness(g), want);
    let hetero = betweenness_hetero(g, &HeteroExecutor::cpu_gpu());
    assert_eq!(hetero.map(|(bc, _)| bc), want);
    assert_eq!(betweenness_weighted(g, &sources, &ones, &ones), want);
    assert_eq!(betweenness_pendant_reduced(g), want);
}

fn families() -> Vec<(&'static str, GraphStrategy)> {
    vec![
        ("simple", simple_graphs(16)),
        ("multigraph", multigraphs(14)),
        ("biconnected", biconnected_graphs(16)),
        ("chain_heavy", chain_heavy_graphs(30)),
        ("cactus", cactus_graphs(20)),
        ("multi_bcc", multi_bcc_graphs(24)),
        ("workload", workload_graphs(32)),
    ]
}

#[test]
fn bc_matches_reference_on_every_family() {
    for (name, strategy) in families() {
        forall(format!("bc_matches_reference_on_every_family/{name}").leak())
            .cases(24)
            .run(&strategy, check);
    }
}

/// The queue the engine takes on `g`, by the rule its module docs state.
fn queue(g: &CsrGraph) -> &'static str {
    let w = g.view().incidence_weights();
    let max = w.iter().copied().max().unwrap_or(0);
    if g.n() <= DIAL_MIN_N || w.contains(&0) || max >= DIAL_WEIGHT_LIMIT as Weight {
        "heap"
    } else if max < DIAL_BUCKETS as Weight {
        "plain Dial"
    } else {
        "overflow Dial"
    }
}

/// `g` with edge `i` re-weighted to `w(i, weight)`.
fn reweighted(g: &CsrGraph, w: impl Fn(usize, Weight) -> Weight) -> CsrGraph {
    let edges: Vec<_> = (0..)
        .zip(g.edges())
        .map(|(i, e)| (e.u, e.v, w(i, e.w)))
        .collect();
    CsrGraph::from_edges(g.n(), &edges)
}

#[test]
fn bc_matches_reference_on_every_queue() {
    // A pendant-rich graph past DIAL_MIN_N, so the pendant reduction peels
    // trees and still leaves a core of its own past DIAL_MIN_N.
    let g = attach_pendants(&random_min_deg3(300, 900, 21), 200, 22);
    let cases = [
        ("plain Dial", g.clone()),
        (
            "overflow Dial",
            reweighted(&g, |i, w| {
                if i % 2 == 0 {
                    w * DIAL_BUCKETS as Weight
                } else {
                    w
                }
            }),
        ),
        (
            "heap",
            reweighted(&g, |i, w| {
                if i == 5 {
                    DIAL_WEIGHT_LIMIT as Weight
                } else {
                    w
                }
            }),
        ),
    ];
    for (want, g) in cases {
        assert!(g.n() > DIAL_MIN_N);
        assert_eq!(queue(&g), want);
        check(&g).unwrap_or_else(|e| panic!("{want}: {e}"));
    }
    // Zero weights force the heap as well, and are refused.
    let zeros = reweighted(&g, |i, w| if i % 3 == 0 { 0 } else { w });
    assert_eq!(queue(&zeros), "heap");
    refuses(&zeros, 0);
}

/// A triangle whose zero-weight edge closes a second shortest path into a
/// vertex that settled first: from 0, vertex 1 settles at 1, then 2
/// (also at 1) relaxes 2 → 1 at 1 and adds its paths to 1's. Counted so,
/// vertex 2 would score 3.58 where its shortest simple paths give 2.5, so
/// betweenness refuses the graph, naming edge 2 (1-2).
#[test]
fn a_tie_into_a_settled_vertex_matches_the_reference() {
    let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 2, 0), (2, 3, 1)]);
    let mut dag = ear_graph::PathDag::default();
    ear_graph::SsspEngine::new().count_paths(g.view(), 0, &mut dag);
    assert_eq!(dag.order, vec![0, 1, 2, 3]);
    assert_eq!(dag.preds[1], vec![0, 2]);
    refuses(&g, 2);
}
