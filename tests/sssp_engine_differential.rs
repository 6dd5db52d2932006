//! Differential sweep for the SSSP engine: one shared [`SsspEngine`]
//! (reused across every case, graph size, and source — the exact reuse
//! pattern the scratch pool produces) must be bit-exact against the
//! allocate-per-source reference (`ear_testkit::reference`) on every
//! testkit graph family, on fixed shapes that drive each of the engine's
//! three queues, and on one engine interleaving them with `run_reusing`
//! searches — for distances, statistics, every field of the
//! shortest-path tree, and the settle order of a path-counting run.
//!
//! A divergence prints a one-line `EAR_TESTKIT_SEED=… cargo test <name>`
//! reproduction.

use std::cell::RefCell;

use ear_graph::engine::{DIAL_BUCKETS, DIAL_WEIGHT_LIMIT};
use ear_graph::{with_engine, CsrGraph, PathDag, QueuedView, SsspEngine, Weight};
use ear_testkit::reference;
use ear_testkit::{
    biconnected_graphs, cactus_graphs, chain_heavy_graphs, forall, multi_bcc_graphs, multigraphs,
    simple_graphs, workload_graphs, Strategy, TestRng,
};

/// Every source of `g`, engine vs reference: see [`engine_matches_from`].
fn engine_matches_reference(g: &CsrGraph, eng: &mut SsspEngine) -> Result<(), String> {
    let sources: Vec<u32> = (0..g.n() as u32).collect();
    engine_matches_from(g, eng, &sources)
}

/// Each of `sources`, engine vs reference: the distance row and run
/// statistics, the full `SsspTree` (parents, depths, settle order,
/// statistics), and a path-counting run's distances, settle order and
/// statistics.
fn engine_matches_from(g: &CsrGraph, eng: &mut SsspEngine, sources: &[u32]) -> Result<(), String> {
    let (mut row, mut dag) = (vec![0; g.n()], PathDag::default());
    for &s in sources {
        let (ld, lstats) = reference::dijkstra_with_stats(g, s);
        let estats = eng.run(g.view(), s, &mut row);
        if estats != lstats {
            return Err(format!(
                "source {s}: stats {estats:?} != reference {lstats:?}"
            ));
        }
        if row != ld {
            return Err(format!("source {s}: distance row mismatch"));
        }

        let lt = reference::dijkstra_tree(g, s);
        let et = eng.run_tree(g.view(), s);
        if et != lt {
            return Err(format!(
                "source {s}: tree mismatch\n{et:?}\nvs reference\n{lt:?}"
            ));
        }

        let pstats = eng.count_paths(g.view(), s, &mut dag);
        if pstats != lstats || dag.dist != ld || dag.order != lt.settle_order {
            return Err(format!("source {s}: path-counting run mismatch"));
        }
    }
    Ok(())
}

/// One engine shared across a whole family sweep, so stale state from a
/// previous (differently-sized) graph is part of what is being tested.
fn sweep(name: &'static str, strat: &ear_testkit::GraphStrategy, cases: usize) {
    let eng = RefCell::new(SsspEngine::new());
    forall(name).cases(cases).run(strat, |g| {
        engine_matches_reference(g, &mut eng.borrow_mut())
    });
}

#[test]
fn engine_matches_legacy_on_simple_graphs() {
    sweep(
        "engine_matches_legacy_on_simple_graphs",
        &simple_graphs(24),
        48,
    );
}

#[test]
fn engine_matches_legacy_on_multigraphs() {
    // Parallel edges and self-loops: the parent-edge tie-break and the
    // self-loop skip must agree exactly.
    sweep("engine_matches_legacy_on_multigraphs", &multigraphs(20), 48);
}

#[test]
fn engine_matches_legacy_on_biconnected_graphs() {
    sweep(
        "engine_matches_legacy_on_biconnected_graphs",
        &biconnected_graphs(24),
        32,
    );
}

#[test]
fn engine_matches_legacy_on_chain_heavy_graphs() {
    sweep(
        "engine_matches_legacy_on_chain_heavy_graphs",
        &chain_heavy_graphs(48),
        32,
    );
}

#[test]
fn engine_matches_legacy_on_cactus_graphs() {
    sweep(
        "engine_matches_legacy_on_cactus_graphs",
        &cactus_graphs(32),
        32,
    );
}

#[test]
fn engine_matches_legacy_on_multi_bcc_graphs() {
    // Multiple biconnected components: sources in one block leave every
    // other block unreachable (INF / sentinel parents).
    sweep(
        "engine_matches_legacy_on_multi_bcc_graphs",
        &multi_bcc_graphs(40),
        32,
    );
}

#[test]
fn engine_matches_legacy_on_workload_graphs() {
    sweep(
        "engine_matches_legacy_on_workload_graphs",
        &workload_graphs(32),
        16,
    );
}

/// The public entry points still exist with their original signatures and
/// still agree with the reference implementations.
#[test]
fn public_api_matches_legacy() {
    let strat = simple_graphs(16);
    let mut rng = TestRng::new(0xd1ff);
    for _ in 0..8 {
        let g = strat.generate(&mut rng);
        for s in 0..g.n() as u32 {
            let d: Vec<ear_graph::Weight> = ear_graph::dijkstra(&g, s);
            let (dw, st) = ear_graph::dijkstra_with_stats(&g, s);
            let t: ear_graph::SsspTree = ear_graph::dijkstra_tree(&g, s);
            let (ld, lst) = reference::dijkstra_with_stats(&g, s);
            assert_eq!(d, ld);
            assert_eq!(dw, ld);
            assert_eq!(st, lst);
            assert_eq!(t.dist, ld);
            assert_eq!(t, reference::dijkstra_tree(&g, s));
        }
    }
}

/// Deterministic multigraph (parallel edges and self-loops possible)
/// from a splitmix-style LCG — big enough to select the Dial queues.
fn random_graph(n: usize, m: usize, wmax: u64, seed: u64) -> CsrGraph {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let edges: Vec<(u32, u32, Weight)> = (0..m)
        .map(|_| {
            (
                (next() % n as u64) as u32,
                (next() % n as u64) as u32,
                1 + next() % wmax,
            )
        })
        .collect();
    CsrGraph::from_edges(n, &edges)
}

fn diamond() -> CsrGraph {
    CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
}

/// Distances from `source`, on a fresh row.
fn row(e: &mut SsspEngine, g: &CsrGraph, source: u32) -> Vec<Weight> {
    let mut row = vec![0; g.n()];
    e.run(g.view(), source, &mut row);
    row
}

/// Small fixed shapes: the diamond's equal-weight ties, one engine reused
/// across graphs of different sizes, and a pooled engine borrowed inside
/// another.
#[test]
fn engine_matches_reference_on_fixed_shapes() {
    let g = diamond();
    let mut e = SsspEngine::new();
    engine_matches_reference(&g, &mut e).unwrap();

    let big = CsrGraph::from_edges(6, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (4, 5, 1)]);
    let small = CsrGraph::from_edges(2, &[(0, 1, 7)]);
    engine_matches_from(&big, &mut e, &[0]).unwrap();
    engine_matches_from(&small, &mut e, &[1]).unwrap();
    engine_matches_from(&big, &mut e, &[4]).unwrap();

    // Zero-weight edges: from 3, vertex 0 settles at 1 before vertex 1
    // does, and 1's zero-weight edge then ties into 0 with a smaller
    // parent pair than 0's own; a settled vertex keeps its parent.
    let zero = CsrGraph::from_edges(4, &[(3, 1, 1), (3, 0, 1), (1, 0, 0)]);
    engine_matches_reference(&zero, &mut e).unwrap();
    assert_eq!(e.run_tree(zero.view(), 3).parent_vertex[0], 3);

    let (outer, inner) = with_engine(|a| {
        let outer = row(a, &g, 0);
        (outer, with_engine(|b| row(b, &g, 1)))
    });
    assert_eq!(outer, reference::dijkstra(&g, 0));
    assert_eq!(inner, reference::dijkstra(&g, 1));
}

/// Graphs past `DIAL_MIN_N` built to drive each queue (the engine's unit
/// tests pin which one each fixture selects): the plain Dial buckets, the
/// two-level overflow window, and the heap fallback for zero weights and
/// for a weight at or above `DIAL_WEIGHT_LIMIT`.
#[test]
fn engine_matches_reference_on_every_dial_mode() {
    let mut e = SsspEngine::new();
    let mut check =
        |g: &CsrGraph, sources: &[u32]| engine_matches_from(g, &mut e, sources).unwrap();

    // Plain buckets; then unit weights, which maximise equal-distance
    // buckets (ascending-vertex drain order and the parent tie-break).
    check(&random_graph(400, 1600, 100, 99), &[0, 7, 399]);
    let units = random_graph(300, 2400, 1, 5);
    check(&units, &[0, 123, 299]);
    // A path of near-maximal weights wraps the circular bucket array
    // hundreds of times.
    let edges: Vec<(u32, u32, Weight)> = (0..499u32)
        .map(|i| (i, i + 1, DIAL_BUCKETS as Weight - 2))
        .collect();
    check(&CsrGraph::from_edges(500, &edges), &[0, 250]);

    // Overflow: weights far above the bucket span; one constant
    // overflow-range weight, so whole distance levels collide a window
    // jump apart; alternating tiny and near-limit weights on a chain
    // crossing tens of thousands of windows.
    check(&random_graph(400, 1600, 100_000, 77), &[0, 7, 399]);
    let edges: Vec<(u32, u32, Weight)> = units.edges().iter().map(|e| (e.u, e.v, 10_000)).collect();
    check(&CsrGraph::from_edges(300, &edges), &[0, 123, 299]);
    let edges: Vec<(u32, u32, Weight)> = (0..499u32)
        .map(|i| {
            let w = if i % 2 == 0 {
                DIAL_WEIGHT_LIMIT as Weight - 1
            } else {
                3
            };
            (i, i + 1, w)
        })
        .collect();
    check(&CsrGraph::from_edges(500, &edges), &[0, 250, 499]);

    // Heap: zero-weight edges, where equal-distance relaxations reach
    // settled vertices; then one edge past the overflow limit.
    let edges: Vec<(u32, u32, Weight)> = (0..)
        .zip(random_graph(300, 1200, 3, 7).edges())
        .map(|(i, e)| (e.u, e.v, if i % 4 == 0 { 0 } else { e.w }))
        .collect();
    check(&CsrGraph::from_edges(300, &edges), &[0, 150, 299]);
    let mut edges: Vec<(u32, u32, Weight)> = (0..499u32).map(|i| (i, i + 1, 3)).collect();
    edges.push((0, 499, DIAL_WEIGHT_LIMIT as Weight + 7));
    check(&CsrGraph::from_edges(500, &edges), &[0, 499]);
}

/// `run_reusing` from `s` on `g` with the rows of a few other sources
/// finished (taken from the reference): it folds at least one and writes
/// `g`'s distance row from `s`.
fn check_reuse(e: &mut SsspEngine, g: &CsrGraph, s: u32) {
    let n = g.n() as u32;
    let finished: Vec<(u32, Vec<Weight>)> = [1u32, 2, 17, 100]
        .iter()
        .map(|&x| x % n)
        .filter(|&x| x != s)
        .map(|x| (x, reference::dijkstra(g, x)))
        .collect();
    let mut row = vec![0; g.n()];
    let (_, folded) = e.run_reusing(QueuedView::new(g.view()), s, &mut row, |x| {
        finished.iter().find(|f| f.0 == x).map(|f| &f.1[..])
    });
    assert!(folded > 0, "source {s}: no row folded");
    assert_eq!(row, reference::dijkstra(g, s), "source {s}");
}

/// One engine flipping between all three queues and a small graph, with
/// a reuse run on the next graph and a tree run on the one after every
/// plain run, must not leak state between runs: buckets stay drained,
/// overflow stays drained, heap stays cleared, and each run matches the
/// reference.
#[test]
fn interleaved_engine_matches_reference() {
    let dial = random_graph(320, 1200, 50, 11);
    let over = random_graph(320, 1200, 80_000, 13);
    let heap = random_graph(320, 1200, 5_000_000, 12);
    let small = diamond();
    let graphs = [&dial, &over, &heap, &small];
    let mut e = SsspEngine::new();
    for s in [0u32, 31, 64] {
        for (i, g) in graphs.iter().enumerate() {
            let s = s % g.n() as u32;
            let mut dist = vec![0; g.n()];
            let stats = e.run(g.view(), s, &mut dist);
            assert_eq!((dist, stats), reference::dijkstra_with_stats(g, s));
            let next = graphs[(i + 1) % graphs.len()];
            check_reuse(&mut e, next, s % next.n() as u32);
            let after = graphs[(i + 2) % graphs.len()];
            let t = s % after.n() as u32;
            assert_eq!(
                e.run_tree(after.view(), t),
                reference::dijkstra_tree(after, t)
            );
        }
    }
}
