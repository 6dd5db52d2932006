//! Differential suite for distance tables larger than a 2 MiB huge page.
//!
//! Every table is allocated zeroed and advised for transparent huge
//! pages before it is written (`ear_apsp::arena`). The property suites
//! draw graphs far too small to reach that path, so this one builds a
//! single block of 1200 vertices — a 5.8 MB table at `u32` — and the same
//! graph plus a disjoint `u32::MAX` edge, which stores it at `u64`
//! (11.5 MB). At both widths a cold build and each oracle along a 2-hop
//! refresh chain must answer every pair as Dijkstra does, and each
//! refreshed oracle's tables must be bit-identical to a cold build's.

use std::sync::Arc;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle, QueryEngine};
use ear_decomp::plan::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_testkit::reference::dijkstra;
use ear_testkit::TestRng;

const N: u32 = 1200;

/// A ring of `N` vertices with a chord from every fourth vertex, weights
/// 1–7: one block, about half its vertices of degree 2. With `heavy`, a
/// disjoint edge `(N, N + 1)` of weight `u32::MAX` is appended.
fn ring_with_chords(heavy: bool) -> CsrGraph {
    let mut edges: Vec<(u32, u32, Weight)> = (0..N)
        .map(|i| (i, (i + 1) % N, Weight::from(1 + i % 7)))
        .collect();
    edges.extend(
        (0..N)
            .step_by(4)
            .map(|i| (i, (7 * i + 13) % N, Weight::from(1 + 3 * i % 7))),
    );
    let mut n = N as usize;
    if heavy {
        edges.push((N, N + 1, Weight::from(u32::MAX)));
        n += 2;
    }
    CsrGraph::from_edges(n, &edges)
}

/// `o` and its query engine answer every pair of `g` as Dijkstra does.
fn matches_dijkstra(o: &DistanceOracle, g: &CsrGraph, what: &str) {
    let q = QueryEngine::new(o);
    for u in 0..g.n() as u32 {
        let row = dijkstra(g, u);
        for (v, &d) in (0..).zip(&row) {
            assert_eq!(o.dist(u, v), d, "{what}: oracle d({u},{v})");
            assert_eq!(q.dist(u, v), d, "{what}: engine d({u},{v})");
        }
    }
}

/// `o`'s tables are bit-identical to a cold build's on the same plan.
fn matches_cold(o: &DistanceOracle, exec: &HeteroExecutor, what: &str) {
    let cold = build_oracle_with_plan(Arc::clone(o.plan()), exec, ApspMethod::Ear);
    let (a, b) = (o.tables(), cold.tables());
    assert_eq!(a.entry_bytes(), b.entry_bytes(), "{what}: width");
    assert_eq!(a.ap_span(), b.ap_span(), "{what}: AP table");
    // `assert!`, not `assert_eq!`: a failure would print 1.4M entries.
    for blk in 0..o.plan().n_blocks() as u32 {
        assert!(
            a.block_span(blk) == b.block_span(blk),
            "{what}: block {blk}"
        );
    }
}

/// A cold build and a 2-hop refresh chain on `ring_with_chords(heavy)`,
/// each stored at `bytes` per entry.
fn cold_and_refresh_chain(heavy: bool, bytes: usize) {
    let exec = HeteroExecutor::sequential();
    let g = ring_with_chords(heavy);
    let mut o = build_oracle_with_plan(Arc::new(DecompPlan::build(&g)), &exec, ApspMethod::Ear);
    assert_eq!(o.tables().entry_bytes(), bytes);
    assert_eq!(o.plan().n_blocks(), 1 + usize::from(heavy));
    assert!(o.tables().bytes() > 4 << 20, "{} bytes", o.tables().bytes());
    matches_dijkstra(&o, &g, "cold");
    let mut rng = TestRng::new(u64::from(heavy) + 0x4b9e);
    let mut w: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    let own = w.len() - usize::from(heavy);
    for hop in 0..2 {
        for x in &mut w[..own] {
            if rng.coin() {
                *x = rng.u64_in(1, 8);
            }
        }
        let plan = Arc::new(o.plan().recustomized(&w));
        o = o.recustomized(plan, &exec);
        let what = format!("hop {hop}");
        assert_eq!(o.tables().entry_bytes(), bytes, "{what}");
        matches_cold(&o, &exec, &what);
        let edges: Vec<_> = g
            .edges()
            .iter()
            .zip(&w)
            .map(|(e, &w)| (e.u, e.v, w))
            .collect();
        matches_dijkstra(&o, &CsrGraph::from_edges(g.n(), &edges), &what);
    }
}

#[test]
fn u32_tables_past_a_huge_page_match_dijkstra_and_cold() {
    cold_and_refresh_chain(false, 4);
}

#[test]
fn u64_tables_past_a_huge_page_match_dijkstra_and_cold() {
    cold_and_refresh_chain(true, 8);
}
